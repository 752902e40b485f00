GO ?= go

.PHONY: all build test race vet ci bench conformance profile clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short-mode race run: the heavy fixtures (20k-sample plans, sample-ACF
# property tests) are gated behind testing.Short so this stays fast.
race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

ci:
	./scripts/ci.sh

# Runs the ablation suite and writes machine-readable BENCH_8.json.
bench:
	$(GO) run ./cmd/bench

# Statistical acceptance suite (quick mode); writes CONFORMANCE_1.json.
# Use `go run ./cmd/conformance -full` for paper-scale sample sizes.
conformance:
	$(GO) run ./cmd/conformance -quick -out CONFORMANCE_1.json

# CPU profile of a short estimation run; inspect with
# `go tool pprof PROFILE.pprof`.
profile:
	$(GO) run ./cmd/tracegen -intra -frames 8192 -format bin -o /tmp/vbrsim-profile.bin
	$(GO) run ./cmd/qsim -i /tmp/vbrsim-profile.bin -util 0.6 -buffer 30 \
		-reps 500 -cpuprofile PROFILE.pprof
	@echo "wrote PROFILE.pprof"

clean:
	$(GO) clean ./...
