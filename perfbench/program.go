package main

import (
	"fmt"

	"teeperf/internal/probe"
	"teeperf/internal/symtab"
)

// A program is a generated call tree replayed against probe hooks: a flat
// op stream in which a non-negative op enters that function and opExit
// returns from the innermost open one. It is split into top-level trees,
// each balanced, so any run of consecutive trees is a complete workload
// (the fleet's bursts and the calltree's thread round-robin rely on it).
type program struct {
	ops   []int32
	trees []int32 // start offset of each tree in ops; len(trees)+1 offsets with the sentinel
	names []string
	addrs []uint64 // runtime address of each function, set by bind
	calls int      // call ops in the whole program
	work  int      // splitmix64 steps per call (the native body)
}

const opExit = -1

// shape parameterizes generate.
type shape struct {
	prefix    string // function-name prefix ("calltree", "fleet")
	funcs     int    // registered function names
	callees   int    // distinct callees per function
	roots     int    // distinct root functions
	calls     int    // total call ops
	treeCalls int    // call ops per top-level tree
	spine     int    // minimum depth every tree descends to first (at least 2)
	maxDepth  int    // depth cap of the random walk
	work      int    // splitmix64 steps per call
}

// generate builds a program from seed. The total call count, tree count
// and depth range depend only on sh, never on seed; the seed picks which
// functions call which, so every seed costs the same to run while the
// stacks it produces differ.
func generate(sh shape, seed uint64) *program {
	rng := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int { return int(splitmix64(&rng) % uint64(n)) }

	// Every call is one enter and one exit op.
	p := &program{work: sh.work, ops: make([]int32, 0, 2*sh.calls)}
	p.names = make([]string, sh.funcs)
	for i := range p.names {
		p.names[i] = fmt.Sprintf("%s.pkg%02d.Func%04d", sh.prefix, i%37, i)
	}
	callees := make([][]int32, sh.funcs)
	for f := range callees {
		callees[f] = make([]int32, sh.callees)
		for j := range callees[f] {
			callees[f][j] = int32(next(sh.funcs))
		}
	}

	stack := make([]int32, 0, sh.maxDepth)
	enter := func(f int32) {
		p.ops = append(p.ops, f)
		stack = append(stack, f)
		p.calls++
	}
	exit := func() {
		p.ops = append(p.ops, opExit)
		stack = stack[:len(stack)-1]
	}
	for p.calls < sh.calls {
		p.trees = append(p.trees, int32(len(p.ops)))
		budget := sh.treeCalls
		if rest := sh.calls - p.calls; budget > rest {
			budget = rest
		}
		enter(int32(next(sh.roots)))
		budget--
		for ; budget > 0; budget-- {
			top := stack[len(stack)-1]
			child := callees[top][next(sh.callees)]
			switch {
			case len(stack) < sh.spine:
			case len(stack) >= sh.maxDepth || next(2) == 0:
				// Return first, then call: the walk stays between spine
				// and maxDepth while the call count advances by one.
				exit()
				top = stack[len(stack)-1]
				child = callees[top][next(sh.callees)]
			}
			enter(child)
		}
		for len(stack) > 0 {
			exit()
		}
	}
	p.trees = append(p.trees, int32(len(p.ops)))
	return p
}

// register adds the program's functions to tab.
func (p *program) register(tab *symtab.Table) error {
	for i, name := range p.names {
		if _, err := tab.Register(name, 64, fmt.Sprintf("pkg%02d.go", i%37), 10+i); err != nil {
			return fmt.Errorf("register %s: %w", name, err)
		}
	}
	return nil
}

// bind resolves every function through addrOf (the recorder's relocated
// addresses).
func (p *program) bind(addrOf func(string) uint64) {
	p.addrs = make([]uint64, len(p.names))
	for i, name := range p.names {
		p.addrs[i] = addrOf(name)
	}
}

// numTrees returns the number of top-level trees.
func (p *program) numTrees() int { return len(p.trees) - 1 }

// run replays trees [from, to), tree i on hooks[i%len(hooks)], and returns
// the body's checksum. The checksum depends only on the program and the
// range, never on the hooks, so instrumented and native runs must agree.
func (p *program) run(hooks []probe.Hooks, from, to int) uint64 {
	var sum uint64
	stack := make([]uint64, 0, 64)
	for t := from; t < to; t++ {
		h := hooks[t%len(hooks)]
		state := uint64(t)
		for _, op := range p.ops[p.trees[t]:p.trees[t+1]] {
			if op == opExit {
				addr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				h.Exit(addr)
				continue
			}
			addr := p.addrs[op]
			stack = append(stack, addr)
			h.Enter(addr)
			for w := 0; w < p.work; w++ {
				sum += splitmix64(&state) ^ uint64(op)
			}
		}
	}
	return sum
}

// splitmix64 is the deterministic generator behind every generated input.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
