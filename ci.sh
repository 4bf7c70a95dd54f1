#!/bin/sh
# Repository CI gate: formatting, lints, and the full test suite.
# Everything runs offline; the workspace has no network dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --examples"
cargo build --workspace --examples --offline

echo "==> cargo test"
cargo test --workspace -q --offline

echo "==> benchmark build + self-test (perfbench must keep compiling against the test beds)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-campaign smoke (deterministic)"
cargo run -q -p neve-cli --offline --bin neve -- faults --smoke

echo "==> fuzz-campaign smoke (snapshot/restore + oracle stack, double-run byte-identity)"
cargo run -q -p neve-cli --offline --bin neve -- fuzz --smoke

echo "==> fuzz corpus hygiene (every persisted reproducer must be minimized)"
if grep -rl '"minimized": false' results/fuzz_corpus/ 2>/dev/null; then
    echo "unminimized reproducer(s) left in results/fuzz_corpus/ (listed above)" >&2
    exit 1
fi

echo "==> correctness oracles (differential + engine lockstep + trap algebra + golden tables)"
cargo run -q -p neve-cli --offline --bin neve -- check --smoke

echo "==> consolidation smoke (event-wheel tick rig, double-run + --jobs byte-identity)"
micro_md5_before=$(md5sum results/micro_matrix.json)
cargo run -q -p neve-cli --offline --bin neve -- consolidate --smoke
echo "$micro_md5_before" | md5sum -c --quiet - || {
    echo "results/micro_matrix.json changed under the consolidation rig" >&2
    exit 1
}

echo "==> serve smoke (coalescing + matrix byte-identity + budget containment)"
micro_md5_before=$(md5sum results/micro_matrix.json)
cargo run -q -p neve-cli --offline --release --bin neve -- serve --smoke
# A live two-request session: the second identical request must be
# served entirely from the store (never re-measured), and the streamed
# full-grid matrix must be the cache file verbatim.
serve_log=$(printf '%s\n' \
    '{"id":"a","configs":["vm","x86-vm"],"benches":["hypercall","eoi"]}' \
    '{"id":"b","configs":["vm","x86-vm"],"benches":["hypercall","eoi"]}' \
    '{"id":"g"}' \
    | cargo run -q -p neve-cli --offline --release --bin neve -- serve --jobs 2)
if printf '%s\n' "$serve_log" | grep '"id":"b"' | grep -q '"source":"measured"'; then
    echo "serve: the second identical request re-measured a coalesced cell" >&2
    exit 1
fi
disk_cells=$(printf '%s\n' "$serve_log" | grep -c '"source":"disk"') || disk_cells=0
if [ "$disk_cells" -ne 28 ]; then
    echo "serve: full-grid request streamed $disk_cells disk cells, expected 28" >&2
    exit 1
fi
echo "$micro_md5_before" | md5sum -c --quiet - || {
    echo "results/micro_matrix.json changed under the serve engine" >&2
    exit 1
}

echo "==> throughput smoke (matrix byte-identity + steps/sec)"
cargo run -q -p neve-bench --offline --release --bin sim_throughput -- --smoke

echo "==> throughput regression guard (fresh vs recorded, >20% fails)"
cargo run -q -p neve-bench --offline --release --bin sim_throughput -- --guard --samples 5

echo "CI green."
