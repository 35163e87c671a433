package teeperf

import (
	"bytes"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSessionEndToEnd(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual), WithCapacity(1<<12), WithPID(5))
	if err != nil {
		t.Fatal(err)
	}
	fnMain, err := s.RegisterFunc("app.main", "main.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	fnWork, err := s.RegisterFunc("app.work", "main.go", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Thread(); err == nil {
		t.Fatal("Thread before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
	if _, err := s.RegisterFunc("late", "l.go", 1); err == nil {
		t.Fatal("RegisterFunc after Start should fail")
	}

	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	th.Enter(fnMain)
	for i := 0; i < 3; i++ {
		th.Enter(fnWork)
		th.Exit(fnWork)
	}
	th.Exit(fnMain)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	work, ok := p.Func("app.work")
	if !ok || work.Calls != 3 {
		t.Fatalf("app.work calls = %v, %v", work.Calls, ok)
	}

	// Query interface: the paper's example — which thread called which
	// method how often.
	f := Query(p)
	byFunc, err := f.GroupBy([]string{"thread", "name"}, Count("calls"))
	if err != nil {
		t.Fatal(err)
	}
	if byFunc.Len() != 2 {
		t.Errorf("query groups = %d, want 2", byFunc.Len())
	}
	hot, err := f.Filter(`name == "app.work"`)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Len() != 3 {
		t.Errorf("filter kept %d rows, want 3", hot.Len())
	}

	// Flame graph.
	var svg bytes.Buffer
	if err := WriteFlameGraphSVG(&svg, p, FlameGraphOptions{Title: "t"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "app.work") {
		t.Error("SVG missing app.work frame")
	}
	var folded bytes.Buffer
	if err := WriteFolded(&folded, p); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "app.main;app.work") {
		t.Errorf("folded output wrong:\n%s", folded.String())
	}
}

func TestPersistAndLoad(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual), WithPID(123))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := s.RegisterFunc("f", "f.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	th.Enter(fn)
	th.Exit(fn)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "p.teeperf")
	if err := s.Persist(path); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != 123 {
		t.Errorf("loaded PID = %d, want 123", p.PID)
	}
	if _, ok := p.Func("f"); !ok {
		t.Error("loaded profile missing f")
	}

	var buf bytes.Buffer
	if err := s.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Load(missing) should fail")
	}
}

func TestSelectiveSession(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual),
		WithSelective(func(name string) bool { return strings.HasPrefix(name, "hot") }))
	if err != nil {
		t.Fatal(err)
	}
	hot, err := s.RegisterFunc("hot.fn", "h.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.RegisterFunc("cold.fn", "c.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	th.Enter(hot)
	th.Enter(cold)
	th.Exit(cold)
	th.Exit(hot)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Entries; got != 2 {
		t.Errorf("selective session recorded %d entries, want 2", got)
	}
}

func TestLoadBiasSession(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual), WithLoadBias(0x4000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterFunc("reloc", "r.go", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s.AddrOf("reloc")
	if addr == s.Table().Addr("reloc") {
		t.Fatal("AddrOf did not apply the load bias")
	}
	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	th.Enter(addr)
	th.Exit(addr)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	p, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Func("reloc"); !ok {
		t.Error("relocated function not resolved")
	}
}

func TestProfileBeforeStart(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Profile(); err == nil {
		t.Error("Profile before Start should fail")
	}
	if err := s.Stop(); err == nil {
		t.Error("Stop before Start should fail")
	}
	if err := s.Persist("/tmp/x"); err == nil {
		t.Error("Persist before Start should fail")
	}
	if s.AddrOf("nope") != 0 {
		t.Error("AddrOf(unknown) should be 0")
	}
	// Enable/Disable are safe no-ops before Start.
	s.Enable()
	s.Disable()
}

func TestSessionRotate(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual), WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := s.RegisterFunc("spin", "s.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rotate(); err == nil {
		t.Fatal("Rotate before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		th.Enter(fn)
		th.Exit(fn)
	}
	seg1, err := s.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		th.Enter(fn)
		th.Exit(fn)
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	seg2, err := s.Profile()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeProfiles(seg1, seg2)
	if err != nil {
		t.Fatal(err)
	}
	stat, _ := merged.Func("spin")
	if stat.Calls != 12 {
		t.Errorf("merged calls = %d, want 12", stat.Calls)
	}
}

func TestSessionMonitorFacade(t *testing.T) {
	s, err := New(WithCounter(CounterVirtual), WithCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	fn, err := s.RegisterFunc("app.live", "main.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Monitor(); err == nil {
		t.Fatal("Monitor before Start should fail")
	}
	if _, err := s.ServeMonitor("127.0.0.1:0"); err == nil {
		t.Fatal("ServeMonitor before Start should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := s.ServeMonitor("127.0.0.1:0", WithMonitorInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	th, err := s.Thread()
	if err != nil {
		t.Fatal(err)
	}
	th.Enter(fn)
	th.Exit(fn)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}

	table := srv.Agent().Session("main").Table(0)
	if len(table.Funcs) != 1 || table.Funcs[0].Name != "app.live" || table.Funcs[0].Calls != 1 {
		t.Fatalf("live table via facade = %+v", table.Funcs)
	}
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `teeperf_entries_committed_total{session="main"} 2`) {
		t.Errorf("facade /metrics missing entry count:\n%s", body)
	}
}
