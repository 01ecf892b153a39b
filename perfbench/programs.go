package main

import (
	"fmt"

	"dejavu/internal/bytecode"
	"dejavu/internal/workloads"
)

// spec is one benchmark program: a workloads constructor at a given size,
// the VM heap it runs at, and the result it must print, computed here in
// Go without the VM.
type spec struct {
	name string
	heap int // VM semispace bytes for the mode sweep (0 = VM default)
	// build assembles the program.
	build func() *bytecode.Program
	// want is the printed output, or "" when it depends on heap addresses
	// (hashy prints identity hashes) and only cross-mode equality applies.
	want string
}

func printed(v int64) string { return fmt.Sprintf("%d\n", v) }

func sieveSpec(n int) spec {
	composite := make([]bool, n)
	primes := int64(0)
	for i := 2; i < n; i++ {
		if composite[i] {
			continue
		}
		primes++
		for j := i * i; j < n; j += i {
			composite[j] = true
		}
	}
	return spec{name: "sieve", build: func() *bytecode.Program { return workloads.Sieve(n) }, want: printed(primes)}
}

func exprSpec(n int) spec {
	acc := int64(0)
	for i := int64(0); i < int64(n); i++ {
		acc = (acc*31 + i*i + 2*3*i + 7) & 0xffff
	}
	return spec{name: "expr", build: func() *bytecode.Program { return workloads.Expr(n) }, want: printed(acc)}
}

func hashySpec(rounds, depth, heap int) spec {
	return spec{name: "hashy", heap: heap, build: func() *bytecode.Program { return workloads.Hashy(rounds, depth) }}
}

func bankSpec(tellers, accounts, tx int) spec {
	// Transfers conserve money: every account starts at 100.
	return spec{name: "bank", build: func() *bytecode.Program { return workloads.Bank(tellers, accounts, tx) },
		want: printed(int64(100 * accounts))}
}

func prodconsSpec(producers, consumers, capacity, items int) spec {
	sum := int64(0)
	for p := 0; p < producers; p++ {
		for i := 0; i < items; i++ {
			sum += int64(p*1000 + i)
		}
	}
	return spec{name: "prodcons",
		build: func() *bytecode.Program { return workloads.ProdCons(producers, consumers, capacity, items) },
		want:  printed(sum)}
}

func philosophersSpec(n, rounds int) spec {
	return spec{name: "philosophers", build: func() *bytecode.Program { return workloads.Philosophers(n, rounds) },
		want: printed(int64(n * rounds))}
}

func serverSpec(workers, requests int) spec {
	return spec{name: "server", build: func() *bytecode.Program { return workloads.Server(workers, requests) },
		want: printed(int64(requests))}
}

// workload is one input set: the programs the six-mode sweep runs, the
// smaller programs the session clients record, and how the run's time is
// split between the two phases.
type workload struct {
	name      string
	sweep     []spec
	sessions  []spec
	sweepFrac float64 // share of --seconds spent in the mode sweep
}

// hashyHeap forces tens of copying collections per hashy run (39 at the
// sweep's size).
const hashyHeap = 16 << 10

var workloadTable = []workload{
	{
		name:      "compute",
		sweep:     []spec{sieveSpec(20_000), exprSpec(20_000), hashySpec(250, 25, hashyHeap)},
		sessions:  []spec{sieveSpec(8_000), exprSpec(8_000), hashySpec(100, 25, 0)},
		sweepFrac: 0.6,
	},
	{
		name: "contended",
		sweep: []spec{bankSpec(4, 8, 3_000), prodconsSpec(2, 2, 4, 1_000),
			philosophersSpec(5, 1_000), serverSpec(3, 1_200)},
		sessions: []spec{bankSpec(4, 8, 200), prodconsSpec(2, 2, 4, 100),
			philosophersSpec(5, 30), serverSpec(3, 40)},
		sweepFrac: 0.6,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
