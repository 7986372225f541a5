# Convenience targets for the PMWare reproduction workspace.

.PHONY: verify build test clippy fmt loc chaos bench bench-gca bench-smoke bench-wire bench-federation bench-latency bench-storage lint-wire lint-latency lint-storage obs test-federation test-storage test-perfbench

# The full pre-merge gate: release build, the whole test suite, a
# warning-free clippy pass over every target in the workspace, a
# formatting check, the chaos gate (fault-injection matrix + soak), the
# observability gate (byte-identical golden exports + zero-perturbation
# overhead bench), the federation gate (failover matrix + soak), a
# tiny-config throughput smoke run that fails if parallel and
# sequential studies ever diverge, the wire lint that keeps untyped
# JSON from creeping back onto the hot path, the wall-clock lint that
# keeps real time out of simulation code, and the latency soak with its
# built-in shed/convergence gates, and the storage gate (durable
# crash-recovery goldens, the residency lint, and the RSS/hydration/
# recovery soak with its built-in capped-below-uncapped assertion), and
# the benchmark harness's own tests, which also prove it still compiles
# against the crates' public API.
verify: build test clippy fmt lint-wire lint-latency lint-storage chaos obs test-federation test-storage test-perfbench bench-smoke bench-latency bench-storage

build:
	cargo build --release --workspace

test:
	cargo test -q --workspace

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Formatting is part of the gate: workspace crates only (vendored deps
# are path dependencies, not workspace members, so fmt never touches
# them).
fmt:
	cargo fmt --check

# The line count the ROADMAP tracks: lines of `.rs` files under src/,
# crates/ and examples/, leaving out tests/ and benches/ directories and,
# in every file, everything from its first `#[cfg(test)]` line on (the
# in-file unit-test modules sit at the end). vendor/ (third-party
# stand-ins) and perfbench/ (the benchmark harness) are not counted.
loc:
	@find src crates examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
		-exec awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; \
		| awk '{ s += $$1 } END { print s }'

# The chaos gate: the deterministic fault-injection matrix (five fault
# kinds x four endpoints x reboot modes, each asserting bit-identical
# convergence) plus a chaos-soak smoke run that writes BENCH_chaos.json
# and fails if any rate <= 0.30 does not converge.
chaos:
	cargo test --release --test chaos_matrix --test connected_apps
	cargo run --release -p pmware-bench --bin chaos_soak

bench:
	cargo bench -p pmware-bench

# Incremental-vs-batch nightly discovery cost and cold-vs-memoized
# analytics throughput; writes BENCH_gca.json in the repo root.
bench-gca:
	cargo run --release -p pmware-bench --bin gca_scaling

# Tiny-config cohort throughput smoke: one quick pass over the full
# thread ladder. The binary asserts every timed run equals the
# sequential reference bit for bit, so this exits nonzero on any
# parallel-vs-sequential divergence. Runs in a scratch directory so the
# checked-in BENCH_cohort.json (full-size numbers) is never clobbered.
bench-smoke:
	cargo build --quiet --release -p pmware-bench --bin cohort_throughput
	tmp=$$(mktemp -d) && cd $$tmp && \
		$(CURDIR)/target/release/cohort_throughput --participants 2 --days 2 --repeats 1 && \
		rm -rf $$tmp

# Per-endpoint cost of the typed in-process path vs the marshalled JSON
# wire path; writes BENCH_wire.json in the repo root.
bench-wire:
	cargo run --release -p pmware-bench --bin wire_micro

# The typed-wire-path regression gate: handlers receive typed Payload
# bodies and the client builds typed payloads, so neither may mention
# `json!(` or `serde_json::Value` (`#[cfg(test)]` code in the client is
# exempt — the lint strips everything from its `mod tests` down).
lint-wire:
	@! grep -rn 'json!(\|serde_json::Value' crates/cloud/src/handlers/ \
		|| { echo 'lint-wire: untyped JSON crept back into crates/cloud/src/handlers/'; exit 1; }
	@! sed -n '1,/^mod tests {/p' crates/core/src/cloud_client.rs | grep -n 'json!(' \
		|| { echo 'lint-wire: json! crept back into the CloudClient request builders'; exit 1; }
	@echo 'lint-wire: ok'

# The wall-clock lint: the request latency model (DESIGN.md §5j) is
# sim-time only, so no simulation code may read a real clock. The only
# sanctioned wall-clock readers are the throughput/overhead bench
# binaries in crates/bench/src/bin, which measure wall time on purpose.
lint-latency:
	@! grep -rn 'std::time::\(Instant\|SystemTime\)' crates \
		--include='*.rs' --exclude-dir=bin \
		|| { echo 'lint-latency: wall-clock time crept into simulation code'; exit 1; }
	@echo 'lint-latency: ok'

# The latency soak: request quantiles vs a doubling offered-load
# ladder, max users per instance at a fixed p99 SLO, and the
# flash-crowd arm (must shed, must converge to the unshedded
# baseline's exact state); writes BENCH_latency.json in the repo root.
# Flags: --seed, --reqs, --max-users, --slo-p99-ms, --flash-users,
# --shed-depth.
bench-latency:
	cargo run --release -p pmware-bench --bin latency_soak

# The federation gate: the failover & migration matrix (every arm of
# N instances x balancing policy x kill instant, plain and under 30 %
# transport chaos, asserting byte-identical convergence to the
# single-instance baseline and the zero-steady-state-router pin), then
# the federation soak, which writes BENCH_federation.json and exits
# nonzero if the arm diverges or a control-plane pin breaks.
test-federation:
	cargo test --release -q --test federation_matrix
	$(MAKE) bench-federation

# Multi-instance soak: capacity split, migration sim-latency, and
# control-plane cost; writes BENCH_federation.json in the repo root.
# Flags: --instances, --balance-policy, --failover-at-day, --chaos-rate.
bench-federation:
	cargo run --release -p pmware-bench --bin federation_soak

# The storage gate: the engine's golden tests — byte-identical durable
# replay after a crash, deterministic LRU eviction, evicted-user
# failover, and the capped-vs-uncapped proptest equivalence — plus the
# durable arm of the chaos matrix.
test-storage:
	cargo test --release -q -p pmware-cloud --test storage
	cargo test --release --test chaos_matrix chaos_matrix_durable_crash_recovery_converges

# Storage soak: capped-RSS-vs-population ladder (each arm in its own
# child process so peak RSS is honest), hydration latency vs history
# length, and crash-recovery time; writes BENCH_storage.json in the
# repo root and exits nonzero if the residency cap leaks or the capped
# arm's peak RSS reaches the uncapped arm's. Flags: --cap, --rounds,
# --seed.
bench-storage:
	cargo run --release -p pmware-bench --bin storage_soak

# The storage-boundary lint: every UserStore access goes through the
# engine (DESIGN.md §5k), so outside crates/cloud/src/storage/ no cloud
# code may reach into a `.users.` shard map or mint a bare
# `Arc<Mutex<UserStore>>` of its own.
lint-storage:
	@! grep -rn '\.users\.\|Arc::new(Mutex::new(UserStore' crates/cloud/src \
		--include='*.rs' | grep -v 'src/storage/' \
		|| { echo 'lint-storage: UserStore access leaked around the storage engine'; exit 1; }
	@echo 'lint-storage: ok'

# The benchmark harness (perfbench/, a Cargo workspace of its own) builds
# against the crates by path; its tests run tiny versions of every
# workload, so an API change that breaks the benchmark fails here.
test-perfbench:
	cargo test --release --manifest-path perfbench/Cargo.toml

# The observability gate: golden determinism tests (same seed => byte-
# identical metrics snapshot and trace JSONL, at any thread count; obs
# on == obs off to the last bit), the latency-model goldens (the model
# annotates, never perturbs; span/histogram exports byte-stable), plus
# the overhead bench, which writes BENCH_obs.json and exits nonzero if
# instrumentation perturbs results.
obs:
	cargo test --release -q -p pmware-bench --test obs_golden --test latency_matrix
	cargo run --release -p pmware-bench --bin obs_overhead
