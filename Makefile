# coordattack — build, test, and reproduction targets.

GO ?= go

.PHONY: all build test test-race bench bench-check report quick-report fault-demo service-demo sweep-demo persist-demo chaos-demo queue-demo cluster-demo cluster-chaos-demo cluster-hints-demo fuzz fuzz-spec fuzz-wal clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# Fast-path regression gate (CI): for each {s:0.1, detfullinfo} ×
# {pair, complete:4, ring:6} × {sim.Engine, mc.Estimate} cell, time the
# fast path against the reference path in one process and fail if the
# median speedup over 7 interleaved rounds drops below the cell's floor
# (internal/mc/gate_test.go). Host speed cancels out of the ratio, so a
# fast-path slowdown of about 3x fails on any runner. The perfgate tag
# keeps this timing test out of `go test ./...`. End-to-end service
# numbers come from perfbench (bash perfbench/run.sh).
bench-check:
	$(GO) test -tags perfgate -run TestFastPathRatioGate -count=1 -v ./internal/mc/

# Full-fidelity reproduction report (EXPERIMENTS.md body).
report:
	$(GO) run ./cmd/coordbench -markdown -out /tmp/coordattack-report.md
	@echo "report written to /tmp/coordattack-report.md"

quick-report:
	$(GO) run ./cmd/coordbench -quick

# Crash-fault injection on the two-generals good run: liveness drops from
# certainty to the fault-equivalent exact value while Pr[PA] stays under
# the Theorem 5.4 ceiling.
fault-demo:
	$(GO) run ./cmd/coordsim -protocol s:0.1 -graph pair -rounds 10 -run good -fault crash:2@4 -mc 20000

# Memoization demo: boot coordd, run the same job twice, and show the
# second answer coming straight from the result cache (/metrics).
service-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	/tmp/coordd -addr 127.0.0.1:8344 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8344/healthz >/dev/null && break; sleep 0.1; \
	done; \
	spec='{"protocol": "s:0.1", "rounds": 10, "trials": 20000, "seed": 7}'; \
	id=$$(curl -s http://127.0.0.1:8344/v1/jobs -d "$$spec" \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	echo "submitted $$id; polling..."; \
	while curl -s http://127.0.0.1:8344/v1/jobs/$$id \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	curl -s http://127.0.0.1:8344/v1/jobs/$$id; echo; \
	echo "resubmitting the identical spec:"; \
	curl -s http://127.0.0.1:8344/v1/jobs -d "$$spec" | grep -E '"(state|cached)"'; \
	curl -s http://127.0.0.1:8344/metrics | grep ^coordd_cache

# Tradeoff-table demo: boot coordd, sweep rounds N × epsilon with the
# random-subset run sampler, and print the rolled-up L/U table. Down the
# diagonal (epsilon ≈ 1/(2N)) the measured ratio stays under N — the
# paper's L(F,R) ≤ ε·L(R) tradeoff (Theorem 5.4) made concrete over
# N ∈ {10, 100, 1000}. Takes a minute or two.
sweep-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	$(GO) build -o /tmp/coordbench ./cmd/coordbench
	@set -e; \
	/tmp/coordd -addr 127.0.0.1:8345 -workers 4 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8345/healthz >/dev/null && break; sleep 0.1; \
	done; \
	/tmp/coordbench -server http://127.0.0.1:8345 -sweep '{"base": {"sampler": "subset", "trials": 40000, "seed": 9}, "axes": {"rounds": [10, 100, 1000], "epsilon": [0.05, 0.005, 0.0005]}}'

# Durability demo: compute a result into an on-disk store, kill the
# daemon, restart it over the same directory, and watch the identical
# spec come back as a cache hit with the engine never having run.
persist-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	store=$$(mktemp -d); \
	spec='{"protocol": "s:0.1", "rounds": 10, "trials": 20000, "seed": 7}'; \
	/tmp/coordd -addr 127.0.0.1:8346 -store-dir $$store & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8346/healthz >/dev/null && break; sleep 0.1; \
	done; \
	id=$$(curl -s http://127.0.0.1:8346/v1/jobs -d "$$spec" \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	echo "submitted $$id; polling..."; \
	while curl -s http://127.0.0.1:8346/v1/jobs/$$id \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	echo "killing coordd and restarting over $$store"; \
	kill -TERM $$pid; wait $$pid || true; \
	/tmp/coordd -addr 127.0.0.1:8346 -store-dir $$store & pid=$$!; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8346/healthz >/dev/null && break; sleep 0.1; \
	done; \
	echo "resubmitting the identical spec after restart:"; \
	curl -s http://127.0.0.1:8346/v1/jobs -d "$$spec" | grep -E '"(state|cached)"'; \
	curl -s http://127.0.0.1:8346/metrics | grep -E '^coordd_(engine_runs|store_hits)_total'

# Chaos soak under the race detector: a stored daemon rides a
# fault-injected filesystem through healthy → disk outage → recovery
# while the harness asserts the operational invariants — no job lost or
# double-run (engine runs == distinct keys), the store degrades and
# un-degrades without a restart (>= 1 recovery), and injected engine
# panics fail only their own job.
chaos-demo:
	$(GO) test -race -v -run 'TestSoakDegradeRecoverExactlyOnce|TestEngineChaosPanicsAreIsolated' ./internal/chaos/

# Durable-queue demo: load a single-worker daemon with a backlog, kill
# it with SIGKILL (no drain, no goodbye), restart over the same
# -queue-dir, and watch the journal re-admit every accepted-but-
# unfinished job and run the backlog to completion — exactly once.
queue-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	qdir=$$(mktemp -d); \
	/tmp/coordd -addr 127.0.0.1:8347 -workers 1 -queue-dir $$qdir & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8347/healthz >/dev/null && break; sleep 0.1; \
	done; \
	for seed in 1 2 3 4; do \
		curl -s http://127.0.0.1:8347/v1/jobs \
			-d "{\"protocol\": \"s:0.5\", \"rounds\": 10, \"trials\": 2000000, \"seed\": $$seed}" >/dev/null; \
	done; \
	echo "4 jobs accepted; SIGKILL with the queue non-empty"; \
	kill -9 $$pid; wait $$pid || true; \
	/tmp/coordd -addr 127.0.0.1:8347 -workers 2 -queue-dir $$qdir & pid=$$!; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8347/healthz >/dev/null && break; sleep 0.1; \
	done; \
	echo "restarted; waiting for the replayed backlog to settle"; \
	while curl -s http://127.0.0.1:8347/v1/jobs \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	curl -s http://127.0.0.1:8347/v1/jobs | grep -E '"(id|state)":'; \
	curl -s http://127.0.0.1:8347/metrics | grep -E '^coordd_(queue_replayed_total|engine_runs_total)'

# Three-node cluster demo: static peers with consistent-hash result
# routing and idle-node work stealing. Proves (a) a key computed on A is
# served to B and C with their engines never running, (b) a backlog on A
# is stolen by idle peers and every job settles exactly once (total
# engine runs across the cluster == distinct keys), and (c) killing a
# node leaves the survivors serving.
cluster-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	root=$$(mktemp -d); \
	peers='127.0.0.1:8351,127.0.0.1:8352,127.0.0.1:8353'; \
	for p in 8351 8352 8353; do \
		mkdir -p $$root/$$p/store $$root/$$p/queue; \
		/tmp/coordd -addr 127.0.0.1:$$p -workers 1 -peers $$peers \
			-steal-interval 250ms \
			-store-dir $$root/$$p/store -queue-dir $$root/$$p/queue \
			& echo $$! > $$root/$$p.pid; \
	done; \
	trap 'kill $$(cat $$root/*.pid) 2>/dev/null || true' EXIT; \
	for p in 8351 8352 8353; do \
		for i in $$(seq 50); do \
			curl -sf http://127.0.0.1:$$p/healthz >/dev/null && break; sleep 0.1; \
		done; \
	done; \
	spec='{"protocol": "s:0.1", "rounds": 10, "trials": 20000, "seed": 41}'; \
	id=$$(curl -s http://127.0.0.1:8351/v1/jobs -d "$$spec" \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	while curl -s http://127.0.0.1:8351/v1/jobs/$$id \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	sleep 2; \
	echo "--- computed on A; same spec on B and C settles with zero engine runs"; \
	for p in 8352 8353; do \
		id=$$(curl -s http://127.0.0.1:$$p/v1/jobs -d "$$spec" \
			| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
		while curl -s http://127.0.0.1:$$p/v1/jobs/$$id \
			| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
		curl -s http://127.0.0.1:$$p/v1/jobs/$$id | grep -Eq '"state": "done"'; \
		runs=$$(curl -s http://127.0.0.1:$$p/metrics \
			| sed -n 's/^coordd_engine_runs_total //p'); \
		test "$$runs" = 0; \
		echo "node $$p: done, engine_runs=$$runs"; \
	done; \
	hits=$$(( $$(curl -s http://127.0.0.1:8352/metrics | sed -n 's/^coordd_peer_hits_total //p') \
		+ $$(curl -s http://127.0.0.1:8353/metrics | sed -n 's/^coordd_peer_hits_total //p') )); \
	test $$hits -ge 1; \
	echo "peer hits on B+C: $$hits"; \
	echo "--- 4-job backlog on A: surplus stolen by idle peers"; \
	for seed in 51 52 53 54; do \
		curl -s http://127.0.0.1:8351/v1/jobs \
			-d "{\"protocol\": \"s:0.5\", \"rounds\": 10, \"trials\": 1500000, \"seed\": $$seed}" >/dev/null; \
	done; \
	while curl -s http://127.0.0.1:8351/v1/jobs \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.3; done; \
	total=0; \
	for p in 8351 8352 8353; do \
		runs=$$(curl -s http://127.0.0.1:$$p/metrics \
			| sed -n 's/^coordd_engine_runs_total //p'); \
		total=$$(( total + runs )); \
	done; \
	test $$total -eq 5; \
	echo "engine runs across the cluster: $$total (5 distinct keys, exactly once)"; \
	donated=$$(curl -s http://127.0.0.1:8351/metrics \
		| sed -n 's/^coordd_jobs_donated_total //p'); \
	test $$donated -ge 1; \
	echo "jobs donated by A: $$donated"; \
	echo "--- killing C with SIGKILL; survivors keep serving"; \
	kill -9 $$(cat $$root/8353.pid); \
	curl -s http://127.0.0.1:8351/v1/jobs \
		-d '{"protocol": "s:0.1", "rounds": 10, "trials": 20000, "seed": 42}' \
		| grep -q '"id"'; \
	echo "A accepted new work with C dead"; \
	/tmp/coordd -addr 127.0.0.1:8353 -workers 1 -peers $$peers \
		-steal-interval 250ms \
		-store-dir $$root/8353/store -queue-dir $$root/8353/queue \
		& echo $$! > $$root/8353.pid; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8353/healthz >/dev/null && break; sleep 0.1; \
	done; \
	curl -s http://127.0.0.1:8353/v1/jobs -d "$$spec" | grep -Eq '"cached": true'; \
	echo "restarted C answered the original spec from its disk tier"; \
	echo "cluster-demo: OK"

# Cluster chaos demo: replication + repair under a real SIGKILL. Three
# nodes with -replicas 2 and a fast repair loop settle an 8-key load
# and converge every key onto two nodes; C is then SIGKILLed with a
# fresh backlog in flight and the survivors must serve every
# previously-settled key from their replicas; C restarts over a WIPED
# store directory and the anti-entropy repair loop re-populates it
# until the whole cluster reconverges (every key on >= 2 nodes,
# breakers back to closed).
cluster-chaos-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	root=$$(mktemp -d); \
	peers='127.0.0.1:8361,127.0.0.1:8362,127.0.0.1:8363'; \
	boot() { \
		/tmp/coordd -addr 127.0.0.1:$$1 -workers 1 -peers $$peers \
			-replicas 2 -repair-interval 500ms -steal-interval 250ms \
			-store-dir $$root/$$1/store -queue-dir $$root/$$1/queue \
			& echo $$! > $$root/$$1.pid; \
	}; \
	for p in 8361 8362 8363; do \
		mkdir -p $$root/$$p/store $$root/$$p/queue; boot $$p; \
	done; \
	trap 'kill $$(cat $$root/*.pid) 2>/dev/null || true' EXIT; \
	for p in 8361 8362 8363; do \
		for i in $$(seq 50); do \
			curl -sf http://127.0.0.1:$$p/healthz >/dev/null && break; sleep 0.1; \
		done; \
	done; \
	echo "--- settling 8 keys across the cluster"; \
	n=0; \
	for seed in 61 62 63 64 65 66 67 68; do \
		p=$$(( 8361 + n % 3 )); n=$$(( n + 1 )); \
		curl -s http://127.0.0.1:$$p/v1/jobs \
			-d "{\"protocol\": \"s:0.2\", \"rounds\": 10, \"trials\": 20000, \"seed\": $$seed}" >/dev/null; \
	done; \
	for p in 8361 8362 8363; do \
		while curl -s http://127.0.0.1:$$p/v1/jobs \
			| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	done; \
	keys=$$(for p in 8361 8362 8363; do curl -s http://127.0.0.1:$$p/v1/jobs; done \
		| sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' | sort -u); \
	test $$(echo "$$keys" | wc -l) -eq 8; \
	converge() { \
		for i in $$(seq 120); do \
			ok=1; \
			for k in $$1; do \
				c=0; \
				for p in 8361 8362 8363; do \
					curl -sf http://127.0.0.1:$$p/v1/peer/results/$$k >/dev/null && c=$$((c+1)) || true; \
				done; \
				test $$c -ge 2 || { ok=0; break; }; \
			done; \
			test $$ok = 1 && return 0; sleep 0.3; \
		done; \
		echo "replica convergence timed out"; return 1; \
	}; \
	converge "$$keys"; \
	echo "all 8 keys replicated onto >= 2 nodes"; \
	echo "--- fresh backlog on A, then SIGKILL C mid-load"; \
	for seed in 71 72 73 74; do \
		curl -s http://127.0.0.1:8361/v1/jobs \
			-d "{\"protocol\": \"s:0.5\", \"rounds\": 10, \"trials\": 1500000, \"seed\": $$seed}" >/dev/null; \
	done; \
	kill -9 $$(cat $$root/8363.pid); \
	for k in $$keys; do \
		curl -sf http://127.0.0.1:8361/v1/peer/results/$$k >/dev/null \
			|| curl -sf http://127.0.0.1:8362/v1/peer/results/$$k >/dev/null; \
	done; \
	echo "survivors serve every previously-settled key with C dead"; \
	while curl -s http://127.0.0.1:8361/v1/jobs \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.3; done; \
	echo "backlog settled on the survivors"; \
	echo "--- restarting C over a wiped store"; \
	rm -rf $$root/8363/store; mkdir -p $$root/8363/store; \
	boot 8363; \
	for i in $$(seq 50); do \
		curl -sf http://127.0.0.1:8363/healthz >/dev/null && break; sleep 0.1; \
	done; \
	for i in $$(seq 120); do \
		lk=$$(curl -s http://127.0.0.1:8363/v1/admin/cluster \
			| sed -n 's/.*"local_keys": \([0-9]*\).*/\1/p'); \
		test -n "$$lk" && test "$$lk" -ge 1 && break; sleep 0.3; \
	done; \
	test "$$lk" -ge 1; \
	echo "anti-entropy repair re-populated C's wiped store: local_keys=$$lk"; \
	allkeys=$$(for p in 8361 8362; do curl -s http://127.0.0.1:$$p/v1/jobs; done \
		| sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' | sort -u); \
	converge "$$allkeys"; \
	echo "cluster reconverged: every settled key on >= 2 nodes"; \
	for i in $$(seq 120); do \
		curl -s http://127.0.0.1:8361/v1/admin/cluster | grep -q '"breaker": "open"' || break; sleep 0.3; \
	done; \
	! curl -s http://127.0.0.1:8361/v1/admin/cluster | grep -q '"breaker": "open"'; \
	echo "survivor breakers recovered to closed"; \
	echo "cluster-chaos-demo: OK"

# Hinted-handoff demo: a replica down during a write is healed by hints
# alone — anti-entropy repair is OFF (-repair-interval 0) the whole
# time. Three nodes with full replication; C is SIGSTOPped so pushes
# toward it hang into failures and the failure detector marks it dead;
# a load settles on A and queues durable hints; SIGCONT revives C and
# the next successful ping drains the hints until C serves every key
# having run zero engines and zero repair passes.
cluster-hints-demo:
	$(GO) build -o /tmp/coordd ./cmd/coordd
	@set -e; \
	root=$$(mktemp -d); \
	peers='127.0.0.1:8371,127.0.0.1:8372,127.0.0.1:8373'; \
	for p in 8371 8372 8373; do \
		mkdir -p $$root/$$p/store $$root/$$p/queue; \
		/tmp/coordd -addr 127.0.0.1:$$p -workers 1 -peers $$peers \
			-replicas 3 -repair-interval 0 -steal-interval 0 \
			-probe-interval 200ms -probe-misses 2 \
			-store-dir $$root/$$p/store -queue-dir $$root/$$p/queue \
			& echo $$! > $$root/$$p.pid; \
	done; \
	trap 'kill -9 $$(cat $$root/*.pid) 2>/dev/null || true' EXIT; \
	for p in 8371 8372 8373; do \
		for i in $$(seq 50); do \
			curl -sf http://127.0.0.1:$$p/healthz >/dev/null && break; sleep 0.1; \
		done; \
	done; \
	echo "--- SIGSTOP C: pushes toward it will hang into hint-queued failures"; \
	kill -STOP $$(cat $$root/8373.pid); \
	for seed in 81 82 83; do \
		curl -s http://127.0.0.1:8371/v1/jobs \
			-d "{\"protocol\": \"s:0.2\", \"rounds\": 10, \"trials\": 20000, \"seed\": $$seed}" >/dev/null; \
	done; \
	while curl -s http://127.0.0.1:8371/v1/jobs \
		| grep -Eq '"state": "(queued|running)"'; do sleep 0.2; done; \
	for i in $$(seq 120); do \
		pending=$$(curl -s http://127.0.0.1:8371/metrics \
			| sed -n 's/^coordd_hints_pending //p'); \
		test -n "$$pending" && test "$$pending" -ge 1 && break; sleep 0.2; \
	done; \
	test "$$pending" -ge 1; \
	echo "hints queued on A while C is stopped: pending=$$pending"; \
	echo "--- SIGCONT C: the failure detector's next ping drains the hints"; \
	kill -CONT $$(cat $$root/8373.pid); \
	keys=$$(curl -s http://127.0.0.1:8371/v1/jobs \
		| sed -n 's/.*"key": "\([0-9a-f]*\)".*/\1/p' | sort -u); \
	test $$(echo "$$keys" | wc -l) -eq 3; \
	for i in $$(seq 150); do \
		ok=1; \
		for k in $$keys; do \
			curl -sf http://127.0.0.1:8373/v1/peer/results/$$k >/dev/null || { ok=0; break; }; \
		done; \
		test $$ok = 1 && break; sleep 0.2; \
	done; \
	test $$ok = 1; \
	echo "revived C serves every hinted key"; \
	runs=$$(curl -s http://127.0.0.1:8373/metrics \
		| sed -n 's/^coordd_engine_runs_total //p'); \
	test "$$runs" = 0; \
	echo "C engine runs: $$runs (hints healed it without computing)"; \
	curl -s http://127.0.0.1:8373/v1/admin/cluster | grep -q '"repair_runs": 0'; \
	curl -s http://127.0.0.1:8371/v1/admin/cluster | grep -q '"repair_runs": 0'; \
	echo "zero anti-entropy passes anywhere: hints did all the healing"; \
	delivered=$$(curl -s http://127.0.0.1:8371/metrics \
		| sed -n 's/^coordd_hints_delivered_total //p'); \
	test "$$delivered" -ge 1; \
	echo "hints delivered by A: $$delivered"; \
	echo "cluster-hints-demo: OK"

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/run/

# Short canonicalization fuzz: the spec→key path must be idempotent and
# spelling-invariant (this is the CI smoke; raise -fuzztime locally).
fuzz-spec:
	$(GO) test -fuzz=FuzzCanonicalize -fuzztime=20s -run '^$$' ./internal/service/

# Short WAL replay fuzz: arbitrary segment bytes never panic, only
# checksummed lines apply, and a tombstoned key never comes back (the CI
# smoke; raise -fuzztime locally).
fuzz-wal:
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=20s -run '^$$' ./internal/wal/

clean:
	$(GO) clean ./...
