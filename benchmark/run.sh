#!/bin/bash
# Builds and runs reach-benchmark. The one build setting that differs from
# tier-1's: every function starts on a 64-byte line. Without it a function's
# speed depends on where the linker happens to put it (a dummy function
# added to this crate moved fleet-steady's ops_per_s by 8%; with the flag,
# by 0.5%), and every change to the library would move every number.
#
# The flag is added to whatever flags the environment already sets, in the
# variable cargo reads first; cargo drops a `--config build.rustflags` as
# soon as one of the two is set. The binary checks its own function
# addresses and marks its output NOT-FOR-COMPARISON if the flag did not
# reach it.
flag=-Cllvm-args=-align-all-functions=6
if [ -n "${CARGO_ENCODED_RUSTFLAGS:-}" ]; then
    export CARGO_ENCODED_RUSTFLAGS="$CARGO_ENCODED_RUSTFLAGS"$'\x1f'"$flag"
else
    export RUSTFLAGS="${RUSTFLAGS:+$RUSTFLAGS }$flag"
fi
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
