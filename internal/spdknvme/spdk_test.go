package spdknvme

import (
	"errors"
	"slices"
	"testing"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/counter"
	"teeperf/internal/probe"
	"teeperf/internal/raceinfo"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
	"teeperf/internal/tee"
)

func testDevice(t *testing.T) (*tee.Host, *Device) {
	t.Helper()
	host := tee.NewHost(99)
	dev, err := NewDevice(host, DeviceConfig{Blocks: 1024, Latency: time.Microsecond, MaxIOPS: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	return host, dev
}

func TestNewDeviceValidation(t *testing.T) {
	if _, err := NewDevice(nil, DeviceConfig{}); err == nil {
		t.Error("nil host should fail")
	}
	host := tee.NewHost(1)
	dev, err := NewDevice(host, DeviceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dev.Config()
	if cfg.Blocks <= 0 || cfg.Latency <= 0 || cfg.MaxIOPS <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestQueuePairValidation(t *testing.T) {
	_, dev := testDevice(t)
	if _, err := dev.NewQueuePair(0); err == nil {
		t.Error("zero depth should fail")
	}
	if _, err := dev.NewQueuePair(99999); err == nil {
		t.Error("absurd depth should fail")
	}
}

func TestSubmitPollRoundTrip(t *testing.T) {
	_, dev := testDevice(t)
	qp, err := dev.NewQueuePair(4)
	if err != nil {
		t.Fatal(err)
	}
	wbuf := make([]byte, BlockSize)
	for i := range wbuf {
		wbuf[i] = byte(i * 7)
	}
	if err := qp.Submit(5, true, wbuf, 1); err != nil {
		t.Fatal(err)
	}
	waitAll(t, qp, 1)

	rbuf := make([]byte, BlockSize)
	if err := qp.Submit(5, false, rbuf, 2); err != nil {
		t.Fatal(err)
	}
	waitAll(t, qp, 1)
	for i := range rbuf {
		if rbuf[i] != wbuf[i] {
			t.Fatalf("readback mismatch at %d: %d != %d", i, rbuf[i], wbuf[i])
		}
	}
}

func waitAll(t *testing.T, qp *QueuePair, want int) {
	t.Helper()
	got := 0
	deadline := time.Now().Add(5 * time.Second)
	for got < want {
		comps, err := qp.Poll()
		if err != nil {
			t.Fatal(err)
		}
		got += len(comps)
		if time.Now().After(deadline) {
			t.Fatalf("completions stalled: %d/%d", got, want)
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	_, dev := testDevice(t)
	qp, err := dev.NewQueuePair(1)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := qp.Submit(0, false, buf[:10], 0); err == nil {
		t.Error("short buffer should fail")
	}
	if err := qp.Submit(-1, false, buf, 0); !errors.Is(err, ErrBadLBA) {
		t.Errorf("negative lba: %v", err)
	}
	if err := qp.Submit(99999, false, buf, 0); !errors.Is(err, ErrBadLBA) {
		t.Errorf("huge lba: %v", err)
	}
	if err := qp.Submit(0, false, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := qp.Submit(1, false, buf, 1); !errors.Is(err, ErrQueueFull) {
		t.Errorf("full queue: %v", err)
	}
}

func TestDeviceLatencyGatesCompletion(t *testing.T) {
	host := tee.NewHost(1)
	dev, err := NewDevice(host, DeviceConfig{Blocks: 64, Latency: 50 * time.Millisecond, MaxIOPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	qp, err := dev.NewQueuePair(2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := qp.Submit(0, false, buf, 0); err != nil {
		t.Fatal(err)
	}
	comps, err := qp.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 0 {
		t.Error("command completed before its service latency elapsed")
	}
	if qp.Inflight() != 1 {
		t.Errorf("inflight = %d, want 1", qp.Inflight())
	}
}

func TestTokenBucketCapsThroughput(t *testing.T) {
	if testing.Short() || raceinfo.Enabled {
		t.Skip("timing-sensitive; skipped under -race and -short")
	}
	host := tee.NewHost(1)
	dev, err := NewDevice(host, DeviceConfig{Blocks: 1024, Latency: time.Microsecond, MaxIOPS: 10000})
	if err != nil {
		t.Fatal(err)
	}
	qp, err := dev.NewQueuePair(64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	done := 0
	t0 := time.Now()
	for done < 1500 {
		for qp.Inflight() < 64 {
			if err := qp.Submit(done%1024, false, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		comps, err := qp.Poll()
		if err != nil {
			t.Fatal(err)
		}
		done += len(comps)
	}
	iops := float64(done) / time.Since(t0).Seconds()
	if iops > 20000 {
		t.Errorf("token bucket leaked: measured %.0f IOPS with a 10k cap", iops)
	}
}

// perfPipeline builds a full instrumented perf run.
func perfPipeline(t *testing.T, platform tee.Platform, spin bool, mode Mode, ops int) (*PerfConfig, *shmlog.Log, *symtab.Table) {
	t.Helper()
	host := tee.NewHost(4242)
	var enclOpts []tee.EnclaveOption
	if !spin {
		enclOpts = append(enclOpts, tee.WithoutSpin())
	}
	encl, err := tee.NewEnclave(platform, host, enclOpts...)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(host, DeviceConfig{Latency: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	tab := symtab.New()
	if err := RegisterPerfSymbols(tab); err != nil {
		t.Fatal(err)
	}
	log, err := shmlog.New(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	var src counter.Source = counter.NewVirtual(1)
	if spin {
		src = counter.NewTSC()
	}
	rt, err := probe.New(log, src)
	if err != nil {
		t.Fatal(err)
	}
	return &PerfConfig{
		Device: dev,
		Thread: encl.Thread(),
		Hooks:  rt.Thread(),
		AddrOf: tab.Addr,
		Mode:   mode,
		Ops:    ops,
	}, log, tab
}

func TestPerfConfigValidation(t *testing.T) {
	if _, err := RunPerf(nil); err == nil {
		t.Error("nil config should fail")
	}
	if _, err := RunPerf(&PerfConfig{}); err == nil {
		t.Error("empty config should fail")
	}
	cfg, _, _ := perfPipeline(t, tee.Native(), false, ModeNaive, 10)
	bad := *cfg
	bad.Mode = Mode(9)
	if _, err := RunPerf(&bad); err == nil {
		t.Error("bad mode should fail")
	}
	bad2 := *cfg
	bad2.ReadPct = -5
	if _, err := RunPerf(&bad2); err == nil {
		t.Error("bad read pct should fail")
	}
	bad3 := *cfg
	bad3.AddrOf = symtab.New().Addr
	if _, err := RunPerf(&bad3); err == nil {
		t.Error("unregistered symbols should fail")
	}
}

func TestPerfRunCompletesAllOps(t *testing.T) {
	for _, mode := range []Mode{ModeNaive, ModeOptimized} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg, log, tab := perfPipeline(t, tee.SGXv1(), false, mode, 500)
			res, err := RunPerf(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 500 {
				t.Errorf("Ops = %d, want 500", res.Ops)
			}
			if res.Reads+res.Writes != 500 {
				t.Errorf("reads+writes = %d", res.Reads+res.Writes)
			}
			frac := float64(res.Reads) / float64(res.Ops)
			if frac < 0.70 || frac > 0.90 {
				t.Errorf("read fraction %.2f, want ~0.8", frac)
			}
			p, err := analyzer.Analyze(log, tab)
			if err != nil {
				t.Fatal(err)
			}
			if p.Truncated != 0 || p.Unmatched != 0 {
				t.Errorf("profile unbalanced: %d/%d", p.Truncated, p.Unmatched)
			}
			// The Fig 6 stacks must be present.
			for _, sym := range []string{"work_fn", "check_io", "getpid", "rdtsc", "allocate_request"} {
				if _, ok := p.Func(sym); !ok {
					t.Errorf("%s missing from profile", sym)
				}
			}
		})
	}
}

func TestNaiveVsOptimizedOCalls(t *testing.T) {
	// The whole case study in one assertion: the naive port performs
	// getpid+rdtsc OCALLs per I/O; the optimized port a handful total.
	const ops = 400
	naiveCfg, _, _ := perfPipeline(t, tee.SGXv1(), false, ModeNaive, ops)
	naive, err := RunPerf(naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	optCfg, _, _ := perfPipeline(t, tee.SGXv1(), false, ModeOptimized, ops)
	opt, err := RunPerf(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: >= getpidPerAlloc + 2 rdtsc per op.
	if naive.OCalls < uint64(ops*getpidPerAlloc) {
		t.Errorf("naive OCalls = %d, want >= %d", naive.OCalls, ops*getpidPerAlloc)
	}
	// Optimized: 1 getpid + periodic tick corrections only.
	if opt.OCalls > uint64(ops/10+10) {
		t.Errorf("optimized OCalls = %d, want near zero", opt.OCalls)
	}
	if naive.OCalls < 50*opt.OCalls {
		t.Errorf("OCall reduction too small: naive=%d optimized=%d", naive.OCalls, opt.OCalls)
	}
}

func TestPerfDeterministicChecksum(t *testing.T) {
	a, _, _ := perfPipeline(t, tee.Native(), false, ModeNaive, 300)
	resA, err := RunPerf(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := perfPipeline(t, tee.Native(), false, ModeNaive, 300)
	resB, err := RunPerf(b)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Checksum != resB.Checksum || resA.Reads != resB.Reads {
		t.Errorf("runs differ: %+v vs %+v", resA, resB)
	}
}

// TestFig6Hotspots reproduces the Fig 6 (top) profile with real injected
// penalties: on the naive SGX port, getpid dominates self time with rdtsc
// second; after the optimization both fall to ~0 (Fig 6 bottom). The two
// ports run in three interleaved rounds and the bounds apply to each
// fraction's median (getpid must be hottest in most rounds), so a burst of
// load from other processes skews one round instead of the only one.
func TestFig6Hotspots(t *testing.T) {
	if testing.Short() || raceinfo.Enabled {
		t.Skip("timing-sensitive; skipped under -race and -short")
	}
	run := func(mode Mode) *analyzer.Profile {
		cfg, log, tab := perfPipeline(t, tee.SGXv1(), true, mode, 1500)
		if _, err := RunPerf(cfg); err != nil {
			t.Fatal(err)
		}
		p, err := analyzer.Analyze(log, tab)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const rounds = 3
	var naiveGP, naiveRD, optGP, optRD []float64
	getpidHottest := 0
	for round := 0; round < rounds; round++ {
		naive := run(ModeNaive)
		naiveGP = append(naiveGP, naive.SelfFraction("getpid"))
		naiveRD = append(naiveRD, naive.SelfFraction("rdtsc"))
		if top := naive.Top(1); len(top) > 0 && top[0].Name == "getpid" {
			getpidHottest++
		}
		opt := run(ModeOptimized)
		optGP = append(optGP, opt.SelfFraction("getpid"))
		optRD = append(optRD, opt.SelfFraction("rdtsc"))
	}

	gp, rd := median(naiveGP), median(naiveRD)
	if gp < 0.4 {
		t.Errorf("naive getpid self fraction = %.2f, want dominant (paper: ~0.72; rounds: %.2f)", gp, naiveGP)
	}
	if rd <= 0 || rd >= gp {
		t.Errorf("naive rdtsc fraction = %.2f, want > 0 and below getpid (%.2f; rounds: %.2f)", rd, gp, naiveRD)
	}
	if 2*getpidHottest <= rounds {
		t.Errorf("naive hottest = getpid in %d of %d rounds, want most", getpidHottest, rounds)
	}
	if f := median(optGP); f > 0.05 {
		t.Errorf("optimized getpid fraction = %.2f, want ~0 (rounds: %.3f)", f, optGP)
	}
	if f := median(optRD); f > 0.05 {
		t.Errorf("optimized rdtsc fraction = %.2f, want ~0 (rounds: %.3f)", f, optRD)
	}
}

// TestSPDKSpeedup verifies the §IV-C throughput story: naive inside SGX is
// an order of magnitude below native; optimized recovers to near native.
// The three modes run in three interleaved rounds and the bounds apply to
// each mode's median IOPS, so a burst of load from other processes slows
// one run of each mode instead of one mode's only run.
func TestSPDKSpeedup(t *testing.T) {
	if testing.Short() || raceinfo.Enabled {
		t.Skip("timing-sensitive; skipped under -race and -short")
	}
	run := func(platform tee.Platform, mode Mode) float64 {
		cfg, _, _ := perfPipeline(t, platform, true, mode, 4000)
		res, err := RunPerf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.IOPS
	}
	var natives, naives, opts []float64
	for round := 0; round < 3; round++ {
		natives = append(natives, run(tee.Native(), ModeNaive)) // native: syscalls are cheap either way
		naives = append(naives, run(tee.SGXv1(), ModeNaive))
		opts = append(opts, run(tee.SGXv1(), ModeOptimized))
	}
	native, naive, opt := median(natives), median(naives), median(opts)

	if naive*2 > native {
		t.Errorf("naive SGX IOPS %.0f not well below native %.0f (rounds: naive %.0f, native %.0f)",
			naive, native, naives, natives)
	}
	if opt < 0.6*native {
		t.Errorf("optimized IOPS %.0f did not recover toward native %.0f (rounds: optimized %.0f, native %.0f)",
			opt, native, opts, natives)
	}
	if speedup := opt / naive; speedup < 3 {
		t.Errorf("optimized/naive speedup = %.1fx, want substantial (paper: 14.7x; rounds: optimized %.0f, naive %.0f)",
			speedup, opts, naives)
	}
}

// median returns the middle value of xs (the upper middle for even
// lengths), leaving xs unsorted.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}
