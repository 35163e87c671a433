package perfbase

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"teeperf/internal/symtab"
	"teeperf/internal/tee"
)

func TestThreadLeafPublication(t *testing.T) {
	p := New()
	th := p.Thread(nil)
	if th.Leaf() != 0 {
		t.Fatalf("idle leaf = %#x, want 0", th.Leaf())
	}
	th.Enter(0xA)
	if th.Leaf() != 0xA {
		t.Errorf("leaf = %#x, want 0xA", th.Leaf())
	}
	th.Enter(0xB)
	if th.Leaf() != 0xB {
		t.Errorf("leaf = %#x, want 0xB", th.Leaf())
	}
	th.Exit(0xB)
	if th.Leaf() != 0xA {
		t.Errorf("leaf after exit = %#x, want 0xA", th.Leaf())
	}
	th.Exit(0xA)
	if th.Leaf() != 0 {
		t.Errorf("leaf after final exit = %#x, want 0", th.Leaf())
	}
}

func TestThreadExitUnwindsLostFrames(t *testing.T) {
	p := New()
	th := p.Thread(nil)
	th.Enter(0xA)
	th.Enter(0xB)
	th.Enter(0xC)
	th.Exit(0xA) // unwind everything
	if th.Leaf() != 0 {
		t.Errorf("leaf = %#x, want 0 after unwind", th.Leaf())
	}
	// Exit with no matching frame is harmless.
	th.Exit(0x99)
	if th.Leaf() != 0 {
		t.Errorf("leaf = %#x after stray exit", th.Leaf())
	}
}

func TestSampleNowDeterministic(t *testing.T) {
	p := New()
	t1 := p.Thread(nil)
	t2 := p.Thread(nil)

	t1.Enter(0x10)
	p.SampleNow()
	p.SampleNow()
	t1.Exit(0x10)
	t2.Enter(0x20)
	p.SampleNow()

	samples := p.Samples()
	if got := samples[t1.ID()][0x10]; got != 2 {
		t.Errorf("t1 samples at 0x10 = %d, want 2", got)
	}
	if got := samples[t2.ID()][0x20]; got != 1 {
		t.Errorf("t2 samples at 0x20 = %d, want 1", got)
	}
	if got := p.TotalSamples(); got != 3 {
		t.Errorf("TotalSamples = %d, want 3", got)
	}
	if f := p.Fraction(0x10); math.Abs(f-2.0/3.0) > 1e-9 {
		t.Errorf("Fraction(0x10) = %f, want 2/3", f)
	}
	if f := p.Fraction(0x99); f != 0 {
		t.Errorf("Fraction(unknown) = %f, want 0", f)
	}
}

func TestIdleThreadsNotSampled(t *testing.T) {
	p := New()
	p.Thread(nil) // never enters a function
	p.SampleNow()
	if got := p.TotalSamples(); got != 0 {
		t.Errorf("TotalSamples = %d, want 0 for idle thread", got)
	}
}

func TestSamplingChargesAEX(t *testing.T) {
	encl, err := tee.NewEnclave(tee.SGXv1(), tee.NewHost(1), tee.WithoutSpin())
	if err != nil {
		t.Fatal(err)
	}
	teeTh := encl.Thread()
	p := New()
	th := p.Thread(teeTh)
	th.Enter(0x1)
	before := encl.Snapshot()
	p.SampleNow()
	teeTh.Safepoint()
	after := encl.Snapshot()
	if after.AEXs != before.AEXs+1 {
		t.Errorf("AEXs = %d, want %d", after.AEXs, before.AEXs+1)
	}
	if delta := after.Charged - before.Charged; delta < tee.SGXv1().AEXCost {
		t.Errorf("charged %v per sample, want >= platform AEX %v", delta, tee.SGXv1().AEXCost)
	}
}

func TestSamplingAEXOverride(t *testing.T) {
	encl, err := tee.NewEnclave(tee.SGXv1(), tee.NewHost(1), tee.WithoutSpin())
	if err != nil {
		t.Fatal(err)
	}
	teeTh := encl.Thread()
	const cost = 5 * time.Millisecond
	p := New(WithAEXCost(cost))
	th := p.Thread(teeTh)
	th.Enter(0x1)
	before := encl.Snapshot().Charged
	p.SampleNow()
	teeTh.Safepoint()
	if delta := encl.Snapshot().Charged - before; delta < cost {
		t.Errorf("charged %v, want >= %v override", delta, cost)
	}
}

func TestBackgroundSamplerLifecycle(t *testing.T) {
	p := New(WithPeriod(time.Millisecond))
	th := p.Thread(nil)
	th.Enter(0x42)

	if err := p.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Stop before Start: %v", err)
	}
	p.Start()
	p.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for p.TotalSamples() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if p.TotalSamples() == 0 {
		t.Error("background sampler took no samples")
	}
	if err := p.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Errorf("double Stop: %v", err)
	}
}

// TestStopRacingTick stops a sampler whose ticker is always ready, so the
// loop often picks the tick over the stop signal and runs SampleNow while
// Stop is waiting for it. Stop must not hold the lock SampleNow needs.
func TestStopRacingTick(t *testing.T) {
	p := New(WithPeriod(time.Microsecond))
	p.Thread(nil).Enter(0x42)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 2000; i++ {
			p.Start()
			time.Sleep(5 * time.Microsecond)
			if err := p.Stop(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Stop deadlocked against a concurrent tick")
	}
}

// TestSamplingFrequencyBias demonstrates the paper's accuracy argument
// deterministically: two functions each take exactly half the execution time,
// but the workload's phase aligns with the sampling period so the sampler
// only ever observes one of them. A full-tracing profiler sees the true
// 50/50 split; the sampler reports 100/0.
func TestSamplingFrequencyBias(t *testing.T) {
	p := New()
	th := p.Thread(nil)

	const (
		fnAligned = 0xAAA // active exactly when samples fire
		fnHidden  = 0xBBB // active between samples, equally long
	)
	for i := 0; i < 1000; i++ {
		th.Enter(fnAligned)
		p.SampleNow() // the tick lands while fnAligned runs
		th.Exit(fnAligned)
		th.Enter(fnHidden) // equal duration, but between ticks
		th.Exit(fnHidden)
	}
	if f := p.Fraction(fnAligned); f != 1.0 {
		t.Errorf("Fraction(aligned) = %f, want 1.0 (total mis-attribution)", f)
	}
	if f := p.Fraction(fnHidden); f != 0 {
		t.Errorf("Fraction(hidden) = %f, want 0 (invisible to sampler)", f)
	}
}

func TestReport(t *testing.T) {
	tab := symtab.New()
	hot := tab.MustRegister("hot_fn", 16, "h.go", 1)
	cold := tab.MustRegister("cold_fn", 16, "c.go", 1)

	p := New()
	th := p.Thread(nil)
	th.Enter(hot)
	for i := 0; i < 9; i++ {
		p.SampleNow()
	}
	th.Exit(hot)
	th.Enter(cold)
	p.SampleNow()
	th.Exit(cold)

	rows := p.Report(tab)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Name != "hot_fn" || rows[0].Samples != 9 {
		t.Errorf("top row = %+v", rows[0])
	}
	if math.Abs(rows[0].Share-0.9) > 1e-9 {
		t.Errorf("hot share = %f, want 0.9", rows[0].Share)
	}

	var sb strings.Builder
	if err := p.WriteReport(&sb, tab, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "hot_fn") || strings.Contains(out, "cold_fn") {
		t.Errorf("top-1 report wrong:\n%s", out)
	}
	// Nil table: hex fallback.
	rows = p.Report(nil)
	if !strings.HasPrefix(rows[0].Name, "0x") {
		t.Errorf("nil-table report name = %q, want hex", rows[0].Name)
	}
}
