// Package perfbase is the Linux-perf stand-in TEE-Perf is evaluated
// against: a sampling profiler. Application threads publish their current
// leaf function with a single atomic store per entry/exit (far cheaper than
// TEE-Perf's full log write — the cheap end of perf's frame-pointer walk),
// and a sampler interrupts at a fixed frequency, attributing the sample to
// whatever leaf it observes and charging the sampled thread the cost of an
// asynchronous enclave exit plus kernel context switch. Sampling both costs
// time in proportion to runtime (the Fig 4 comparison) and suffers
// frequency bias (the accuracy experiment): activity aligned with the
// sampling period is systematically mis-attributed.
package perfbase

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"teeperf/internal/probe"
	"teeperf/internal/tee"
)

// DefaultPeriod is the default sampling period (4 kHz, perf's default
// frequency).
const DefaultPeriod = 250 * time.Microsecond

// ErrNotRunning is returned by Stop when the sampler is not running.
var ErrNotRunning = errors.New("perfbase: not running")

// Profiler is one sampling-profiler session.
type Profiler struct {
	period time.Duration
	aex    time.Duration

	mu      sync.Mutex
	threads []*Thread
	running bool
	stop    chan struct{}
	done    chan struct{}

	samplesMu sync.Mutex
	samples   map[uint64]map[uint64]uint64 // thread -> addr -> count
}

// Option configures New.
type Option interface {
	apply(*Profiler)
}

type optionFunc func(*Profiler)

func (f optionFunc) apply(p *Profiler) { f(p) }

// WithPeriod sets the sampling period (default DefaultPeriod).
func WithPeriod(d time.Duration) Option {
	return optionFunc(func(p *Profiler) { p.period = d })
}

// WithAEXCost sets the penalty charged to a sampled enclave thread per
// sample (the AEX + kernel switch). Defaults to the thread's platform AEX
// cost; this option overrides it with a fixed value.
func WithAEXCost(d time.Duration) Option {
	return optionFunc(func(p *Profiler) { p.aex = d })
}

// New creates a sampling profiler.
func New(opts ...Option) *Profiler {
	p := &Profiler{
		period:  DefaultPeriod,
		aex:     -1, // sentinel: use platform AEX cost
		samples: make(map[uint64]map[uint64]uint64),
	}
	for _, opt := range opts {
		opt.apply(p)
	}
	return p
}

// Thread registers an application thread. teeThread may be nil for native
// runs; when set, each sample charges it the AEX penalty.
func (p *Profiler) Thread(teeThread *tee.Thread) *Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &Thread{id: uint64(len(p.threads) + 1), teeThread: teeThread}
	p.threads = append(p.threads, t)
	return t
}

// Start launches the background sampler.
func (p *Profiler) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop(p.stop, p.done)
}

func (p *Profiler) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(p.period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.SampleNow()
		}
	}
}

// SampleNow takes one sample of every registered thread. It is exported so
// experiments can drive sampling deterministically instead of (or in
// addition to) the wall-clock sampler.
func (p *Profiler) SampleNow() {
	p.mu.Lock()
	threads := p.threads
	p.mu.Unlock()

	for _, t := range threads {
		addr := t.leaf.Load()
		if addr == 0 {
			continue // thread idle / outside instrumented code
		}
		p.samplesMu.Lock()
		m, ok := p.samples[t.id]
		if !ok {
			m = make(map[uint64]uint64)
			p.samples[t.id] = m
		}
		m[addr]++
		p.samplesMu.Unlock()

		if t.teeThread != nil {
			cost := p.aex
			if cost < 0 {
				cost = t.teeThread.Enclave().Platform().AEXCost
			}
			t.teeThread.AddInterruptDebt(cost)
		}
	}
}

// Stop halts the background sampler. It waits for the sampler goroutine
// without holding p.mu: a tick that races the stop signal runs SampleNow,
// which takes p.mu.
func (p *Profiler) Stop() error {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return ErrNotRunning
	}
	p.running = false
	stop, done := p.stop, p.done
	p.mu.Unlock()
	close(stop)
	<-done
	return nil
}

// Samples returns a copy of the per-thread sample counts.
func (p *Profiler) Samples() map[uint64]map[uint64]uint64 {
	p.samplesMu.Lock()
	defer p.samplesMu.Unlock()
	out := make(map[uint64]map[uint64]uint64, len(p.samples))
	for tid, m := range p.samples {
		mm := make(map[uint64]uint64, len(m))
		for a, c := range m {
			mm[a] = c
		}
		out[tid] = mm
	}
	return out
}

// TotalSamples returns the total sample count across threads.
func (p *Profiler) TotalSamples() uint64 {
	p.samplesMu.Lock()
	defer p.samplesMu.Unlock()
	var n uint64
	for _, m := range p.samples {
		for _, c := range m {
			n += c
		}
	}
	return n
}

// Fraction estimates the share of execution time spent in addr, as a
// sampling profiler would report it: samples(addr) / totalSamples.
func (p *Profiler) Fraction(addr uint64) float64 {
	total := p.TotalSamples()
	if total == 0 {
		return 0
	}
	p.samplesMu.Lock()
	defer p.samplesMu.Unlock()
	var n uint64
	for _, m := range p.samples {
		n += m[addr]
	}
	return float64(n) / float64(total)
}

// Thread is the per-thread publication slot. Enter/Exit maintain a local
// shadow stack and publish the current leaf atomically — the only work on
// the application's hot path.
type Thread struct {
	id        uint64
	teeThread *tee.Thread
	leaf      atomic.Uint64
	stack     []uint64
}

var _ probe.Hooks = (*Thread)(nil)

// ID returns the registration order identifier (≥ 1).
func (t *Thread) ID() uint64 { return t.id }

// Enter publishes addr as the current leaf.
func (t *Thread) Enter(addr uint64) {
	t.stack = append(t.stack, addr)
	t.leaf.Store(addr)
}

// Exit pops the shadow stack and republishes the parent frame.
func (t *Thread) Exit(addr uint64) {
	// Unwind to the matching frame, tolerating lost entries like the
	// analyzer does.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == addr {
			t.stack = t.stack[:i]
			break
		}
	}
	if len(t.stack) == 0 {
		t.leaf.Store(0)
		return
	}
	t.leaf.Store(t.stack[len(t.stack)-1])
}

// Leaf returns the currently published leaf (0 when idle).
func (t *Thread) Leaf() uint64 { return t.leaf.Load() }
