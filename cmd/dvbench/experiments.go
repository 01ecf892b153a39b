package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"strings"
	"time"

	"dejavu/internal/baselines"
	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/faults/chaosfs"
	"dejavu/internal/faults/memfs"
	"dejavu/internal/flightrec"
	"dejavu/internal/heap"
	"dejavu/internal/minimize"
	"dejavu/internal/obs"
	"dejavu/internal/opt"
	"dejavu/internal/ptrace"
	"dejavu/internal/remoteref"
	"dejavu/internal/replaycheck"
	"dejavu/internal/sessions"
	"dejavu/internal/tools"
	"dejavu/internal/trace"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

// benchWorkloads are the programs used by the quantitative experiments.
var benchWorkloads = map[string]func() *bytecode.Program{
	"bank":         func() *bytecode.Program { return workloads.Bank(4, 8, 2000) },
	"prodcons":     func() *bytecode.Program { return workloads.ProdCons(2, 2, 4, 1500) },
	"philosophers": func() *bytecode.Program { return workloads.Philosophers(5, 200) },
	"server":       func() *bytecode.Program { return workloads.Server(3, 300) },
	"sieve":        func() *bytecode.Program { return workloads.Sieve(20000) },
}

// --- E1 ---

func runE1(r *report) error {
	rows := [][]string{}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		o := replaycheck.Options{Seed: seed, PreemptMin: 2, PreemptMax: 10}
		rec, _, err := replaycheck.CheckReplay(workloads.Fig1AB(), o)
		if err != nil {
			return err
		}
		out := strings1(rec.Output)
		distinct[out] = true
		rows = append(rows, []string{fmt.Sprintf("%d", seed), out, "identical"})
	}
	r.table([]string{"timer seed", "printed x,y", "replay"}, rows)
	r.note("distinct outcomes across seeds: %d (schedule-dependent, each replayed exactly)", len(distinct))
	if len(distinct) < 2 {
		return fmt.Errorf("expected schedule dependence")
	}
	return nil
}

func strings1(b []byte) string {
	s := string(b)
	return stringsReplace(s)
}

func stringsReplace(s string) string {
	out := ""
	for _, c := range s {
		if c == '\n' {
			out += ","
		} else {
			out += string(c)
		}
	}
	if len(out) > 0 && out[len(out)-1] == ',' {
		out = out[:len(out)-1]
	}
	return out
}

// --- E2 ---

func runE2(r *report) error {
	rows := [][]string{}
	distinct := map[string]bool{}
	for base := int64(0); base < 8; base++ {
		o := replaycheck.Options{Seed: 5, TimeBase: 1000 + base, TimeStep: 3}
		rec, _, err := replaycheck.CheckReplay(workloads.Fig1CD(), o)
		if err != nil {
			return err
		}
		out := strings1(rec.Output)
		distinct[out] = true
		branch := "wait taken (C)"
		if (1000+base)%2 != 0 {
			branch = "wait skipped (D)"
		}
		rows = append(rows, []string{fmt.Sprintf("%d", 1000+base), branch, out, "identical"})
	}
	r.table([]string{"clock base", "Date() branch", "printed y", "replay"}, rows)
	r.note("distinct outcomes: %d — the wall-clock read steers wait/notify, and replay reproduces both paths", len(distinct))
	if len(distinct) < 2 {
		return fmt.Errorf("expected clock dependence")
	}
	return nil
}

// --- E3 ---

func runE3(r *report) error {
	rows := [][]string{}
	for _, name := range sortedKeys(benchWorkloads) {
		if name == "sieve" {
			continue // single-threaded; covered by E4
		}
		o := replaycheck.Options{Seed: 13}
		rec, rep, err := replaycheck.CheckReplay(benchWorkloads[name](), o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		recYields := uint64(0)
		for _, t := range rec.VM.Scheduler().Threads() {
			recYields += t.YieldCount
		}
		repYields := uint64(0)
		for _, t := range rep.VM.Scheduler().Threads() {
			repYields += t.YieldCount
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", recYields),
			fmt.Sprintf("%d", repYields),
			fmt.Sprintf("%d", rec.EngStats.InstrYields),
			fmt.Sprintf("%d", rep.EngStats.InstrYields),
			okStr(recYields == repYields),
		})
	}
	r.table([]string{"workload", "rec logical clock", "rep logical clock", "rec instr yields", "rep instr yields", "clocks equal"}, rows)
	r.note("instrumentation yield counts differ by mode (record/replay do different work) yet logical clocks")
	r.note("agree exactly — the liveclock guard excludes instrumentation from the clock (Fig. 2, §2.4).")
	return nil
}

func okStr(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}

// --- E4 ---

func runE4(r *report) error {
	rows := [][]string{}
	for _, name := range sortedKeys(benchWorkloads) {
		prog := benchWorkloads[name]
		o := replaycheck.Options{Seed: 21, HeapBytes: 1 << 22}

		// Off baseline: identical schedule (same seeded preemption), no
		// recording — what "instrumentation turned off" means here.
		offStart := time.Now()
		offRes, err := replaycheck.RunOff(prog(), o)
		if err != nil || offRes.RunErr != nil {
			return fmt.Errorf("%s off: %v %v", name, err, offRes.RunErr)
		}
		offDur := time.Since(offStart)

		recStart := time.Now()
		rec, err := replaycheck.Record(prog(), o)
		if err != nil || rec.RunErr != nil {
			return fmt.Errorf("%s record: %v %v", name, err, rec.RunErr)
		}
		recDur := time.Since(recStart)

		repStart := time.Now()
		rep, err := replaycheck.Replay(prog(), rec.Trace, o)
		if err != nil || rep.RunErr != nil {
			return fmt.Errorf("%s replay: %v %v", name, err, rep.RunErr)
		}
		repDur := time.Since(repStart)

		// Per-event rates; schedules are identical across the three runs
		// (same seed), so event counts match and rates are comparable.
		offRate := float64(offRes.Events) / offDur.Seconds()
		recRate := float64(rec.Events) / recDur.Seconds()
		repRate := float64(rep.Events) / repDur.Seconds()
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", rec.Events),
			fmt.Sprintf("%.1f", recRate/1e6),
			fmt.Sprintf("%.1f", repRate/1e6),
			fmt.Sprintf("%.1f", offRate/1e6),
			fmt.Sprintf("%.2fx", offRate/recRate),
			fmt.Sprintf("%.2fx", offRate/repRate),
		})
	}
	r.table([]string{"workload", "events", "record Mev/s", "replay Mev/s", "off Mev/s", "record overhead", "replay overhead"}, rows)
	r.note("overhead = off-mode rate / mode rate, at identical schedules (same preemption seed);")
	r.note("DejaVu's record cost is a counter bump and occasional varint per yield point.")
	return nil
}

// --- E5 ---

func runE5(r *report) error {
	rows := [][]string{}
	for _, name := range sortedKeys(benchWorkloads) {
		prog := benchWorkloads[name]
		o := replaycheck.Options{Seed: 21, HeapBytes: 1 << 23}
		rl := &baselines.ReadLogger{}
		crew := baselines.NewCREWLogger()
		sl := &baselines.SwitchLogger{}

		o.TweakVM = func(c *vm.Config) {
			c.MemHook = rl
			c.Observer = &fanout{list: []vm.Observer{c.Observer, sl}}
		}
		rec, err := replaycheck.Record(prog(), o)
		if err != nil || rec.RunErr != nil {
			return fmt.Errorf("%s: %v %v", name, err, rec.RunErr)
		}
		// Second run for CREW so its map sees the same access stream.
		o2 := replaycheck.Options{Seed: 21, HeapBytes: 1 << 23}
		o2.TweakVM = func(c *vm.Config) { c.MemHook = crew }
		if _, err := replaycheck.Record(prog(), o2); err != nil {
			return fmt.Errorf("%s crew: %w", name, err)
		}

		per := func(n int) string {
			return fmt.Sprintf("%d (%.2f)", n, float64(n)*1e3/float64(rec.Events))
		}
		tstats, _ := rec.VM.Engine().TraceStats()
		switchBytes := tstats.BytesByKind[trace.EvSwitch]
		clockBytes := tstats.BytesByKind[trace.EvClock]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", rec.Events),
			per(len(rec.Trace)),
			fmt.Sprintf("%d/%d", switchBytes, clockBytes),
			per(sl.TraceBytes()),
			per(crew.TraceBytes()),
			per(rl.TraceBytes()),
		})
	}
	r.table([]string{"workload", "events", "DejaVu bytes (/kev)", "sw/clock bytes", "switch-log+ids (/kev)", "InstantReplay CREW (/kev)", "Recap read-log (/kev)"}, rows)
	r.note("bytes (bytes per 1000 events). DejaVu logs only preemptive switches as yield-point deltas")
	r.note("(sw bytes); clock-heavy workloads like server add clock events, which every scheme must log")
	r.note("(paper footnote 7). R&C log every dispatch with thread ids; Instant Replay logs per CREW")
	r.note("operation; Recap logs every read value.")
	return nil
}

type fanout struct{ list []vm.Observer }

func (f *fanout) OnStep(tid, mid, pc int, op bytecode.Opcode) {
	for _, o := range f.list {
		if o != nil {
			o.OnStep(tid, mid, pc, op)
		}
	}
}
func (f *fanout) OnOutput(b []byte) {
	for _, o := range f.list {
		if o != nil {
			o.OnOutput(b)
		}
	}
}
func (f *fanout) OnSwitch(to int) {
	for _, o := range f.list {
		if o != nil {
			o.OnSwitch(to)
		}
	}
}

// --- E6 ---

func runE6(r *report) error {
	// An assembled program carries real line-number tables (the assembler
	// records source lines), so getLineNumberAt returns meaningful values.
	prog := bytecode.MustAssemble(fig3Src)
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		return err
	}
	for i := 0; i < 5000; i++ {
		done, err := m.Step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	eventsBefore := m.Events()
	counter := &ptrace.Counting{Inner: ptrace.Local{H: m.Heap()}}
	w := remoteref.NewLocalWorld(m)
	w.Mem = counter

	rows := [][]string{}
	for _, target := range []string{"Main.helper", "Main.main"} {
		rm, err := w.FindMethod(target)
		if err != nil {
			return err
		}
		for _, off := range []int{0, 2, 4} {
			before := counter.Peeks
			line, err := rm.LineNumberAt(off)
			if err != nil {
				return err
			}
			rows = append(rows, []string{target, fmt.Sprintf("%d", off), fmt.Sprintf("%d", line),
				fmt.Sprintf("%d", counter.Peeks-before)})
		}
	}
	r.table([]string{"method", "offset", "line", "peeks"}, rows)
	r.note("application VM events executed during all queries: %d (perturbation-free)", m.Events()-eventsBefore)
	if m.Events() != eventsBefore {
		return fmt.Errorf("reflection perturbed the VM")
	}
	return nil
}

// --- E7 ---

func runE7(r *report) error {
	prog := workloads.Bank(3, 4, 400)
	rec, err := replaycheck.Record(prog, replaycheck.Options{Seed: 7})
	if err != nil || rec.RunErr != nil {
		return fmt.Errorf("record: %v %v", err, rec.RunErr)
	}
	bare, err := replaycheck.Replay(prog, rec.Trace, replaycheck.Options{})
	if err != nil || bare.RunErr != nil {
		return fmt.Errorf("bare: %v %v", err, bare.RunErr)
	}
	bareHeap, bareUsed := replaycheck.HeapDigest(bare.VM)

	ecfg := core.DefaultConfig(core.ModeReplay)
	ecfg.ProgHash = vm.ProgramHash(prog)
	ecfg.TraceIn = rec.Trace
	eng, _ := core.NewEngine(ecfg)
	m, err := vm.New(prog, vm.Config{Engine: eng})
	if err != nil {
		return err
	}
	d := debugger.New(m)
	d.CheckpointEvery = 5000
	if _, err := d.BreakAt("Main.teller", 0); err != nil {
		return err
	}
	stops := 0
	queries := 0
	for {
		reason, err := d.Continue()
		if err != nil {
			return err
		}
		d.StackTrace(0)
		d.ThreadList()
		d.PrintStatic("Main.done")
		queries += 3
		stops++
		if reason == debugger.StopHalted {
			break
		}
	}
	dbgHeap, dbgUsed := replaycheck.HeapDigest(m)
	rows := [][]string{
		{"bare replay", fmt.Sprintf("%d", bare.Events), fmt.Sprintf("%x", bareHeap), fmt.Sprintf("%d", bareUsed)},
		{"debugged replay", fmt.Sprintf("%d", m.Events()), fmt.Sprintf("%x", dbgHeap), fmt.Sprintf("%d", dbgUsed)},
	}
	r.table([]string{"run", "events", "final heap digest", "heap bytes"}, rows)
	r.note("debugger stops: %d, reflective queries: %d; outputs equal: %v; heap images equal: %v",
		stops, queries, string(m.Output()) == string(bare.Output), dbgHeap == bareHeap && dbgUsed == bareUsed)
	if dbgHeap != bareHeap || m.Events() != bare.Events {
		return fmt.Errorf("debugging perturbed the replay")
	}
	return nil
}

// --- E8 ---

func runE8(r *report) error {
	// Build the same job matrix as before — every workload under five
	// seeds, plus random programs — and fan it across the verify pool.
	var jobs []replaycheck.VerifyJob
	const seeds = 5
	for _, name := range workloads.Names() {
		for seed := int64(1); seed <= seeds; seed++ {
			o := replaycheck.Options{Seed: seed, HostRand: seed}
			if name == "sumlines" {
				o.Input = "5\n15\n22\n\n"
			}
			jobs = append(jobs, replaycheck.VerifyJob{Name: name, Prog: workloads.Registry[name], Options: o})
		}
	}
	const randN = 10
	for seed := int64(100); seed < 100+randN; seed++ {
		seed := seed
		jobs = append(jobs, replaycheck.VerifyJob{
			Name:    "random programs",
			Prog:    func() *bytecode.Program { return workloads.RandomProgram(seed) },
			Options: replaycheck.Options{Seed: seed},
		})
	}
	sum := replaycheck.VerifyPool(jobs, verifyWorkers)
	byName := sum.ByName()
	rows := [][]string{}
	for _, name := range append(workloads.Names(), "random programs") {
		c := byName[name]
		rows = append(rows, []string{name, fmt.Sprintf("%d/%d", c[0], c[1])})
	}
	r.table([]string{"workload", "replays identical"}, rows)
	for _, f := range sum.Failures() {
		r.note("diverged: %s seed=%d: %v", f.Name, f.Seed, f.Err)
	}
	r.note("accuracy: %d/%d recorded executions replayed to identical digests, outputs, heaps, and logical clocks (%d workers, %v)",
		sum.Passed, sum.Passed+sum.Failed, sum.Workers, sum.Wall.Round(time.Millisecond))
	if sum.Failed != 0 {
		return fmt.Errorf("replay accuracy %d/%d", sum.Passed, sum.Passed+sum.Failed)
	}
	return nil
}

// --- E9 ---

func runE9(r *report) error {
	prog := func() *bytecode.Program { return workloads.Hashy(6, 12) }
	base := func() replaycheck.Options {
		o := replaycheck.Options{Seed: 3, PreemptMin: 2, PreemptMax: 10}
		o.TweakVM = func(c *vm.Config) { c.StackSlots = 48 }
		return o
	}
	type abl struct {
		name  string
		tweak func(*core.Config)
	}
	cases := []abl{
		{"control (all symmetry on)", nil},
		{"liveclock guard off", func(c *core.Config) { c.LiveClockGuard = false }},
		{"symmetric allocation off", func(c *core.Config) { c.SymmetricAlloc = false }},
		{"eager stack growth off", func(c *core.Config) { c.EagerStackGrow = false }},
	}
	rows := [][]string{}
	for _, c := range cases {
		diverged := "identical"
		detail := ""
		anyDiverged := false
		for seed := int64(1); seed <= 8; seed++ {
			o := base()
			o.Seed = seed
			o.TweakEngine = c.tweak
			_, _, err := replaycheck.CheckReplay(prog(), o)
			if err != nil {
				anyDiverged = true
				detail = strings.ReplaceAll(err.Error(), "\n", " ")
				if len(detail) > 70 {
					detail = detail[:70] + "..."
				}
				break
			}
		}
		if anyDiverged {
			diverged = "DIVERGED"
		}
		rows = append(rows, []string{c.name, diverged, detail})
		if c.tweak == nil && anyDiverged {
			return fmt.Errorf("control diverged: %s", detail)
		}
		if c.tweak != nil && !anyDiverged {
			return fmt.Errorf("ablation %q failed to diverge", c.name)
		}
	}
	r.table([]string{"configuration", "replay outcome", "first failure"}, rows)
	r.note("each symmetry mechanism of §2.4 is load-bearing: disabling any one breaks replay on the")
	r.note("hashy workload (address-based identity hashes make instrumentation allocation program-visible).")
	return nil
}

// --- E10 ---

func runE10(r *report) error {
	prog := workloads.Bank(3, 6, 1500)
	rec, err := replaycheck.Record(prog, replaycheck.Options{Seed: 5})
	if err != nil || rec.RunErr != nil {
		return fmt.Errorf("record: %v %v", err, rec.RunErr)
	}
	rows := [][]string{}
	for _, every := range []uint64{2000, 10000, 50000} {
		ecfg := core.DefaultConfig(core.ModeReplay)
		ecfg.ProgHash = vm.ProgramHash(prog)
		ecfg.TraceIn = rec.Trace
		eng, _ := core.NewEngine(ecfg)
		m, err := vm.New(prog, vm.Config{Engine: eng})
		if err != nil {
			return err
		}
		ck := &baselines.Checkpointer{Every: every}
		snapTime := time.Duration(0)
		for {
			s := time.Now()
			if err := ck.Maybe(m); err != nil {
				return err
			}
			snapTime += time.Since(s)
			done, err := m.Step()
			if err != nil {
				return err
			}
			if done {
				break
			}
		}
		end := m.Events()
		// Travel to the middle and back near the end.
		t0 := time.Now()
		resteps1, err := ck.TravelTo(m, end/2)
		if err != nil {
			return err
		}
		resteps2, err := ck.TravelTo(m, end-1000)
		if err != nil {
			return err
		}
		travelDur := time.Since(t0)
		rows = append(rows, []string{
			fmt.Sprintf("%d", every),
			fmt.Sprintf("%d", ck.Count()),
			fmt.Sprintf("%.1f", float64(ck.TotalBytes)/1e6),
			fmt.Sprintf("%s", snapTime.Round(time.Microsecond)),
			fmt.Sprintf("%d", resteps1+resteps2),
			fmt.Sprintf("%s", travelDur.Round(time.Microsecond)),
		})
	}
	r.table([]string{"interval (events)", "checkpoints", "total MB", "snapshot time", "re-steps (2 travels)", "travel time"}, rows)
	r.note("smaller intervals buy faster reverse execution with more snapshot space — the Igor trade-off,")
	r.note("made exact here by deterministic replay (re-execution from a checkpoint cannot diverge).")
	return nil
}

// --- E11 ---

func runE11(r *report) error {
	m, err := vm.New(workloads.Bank(3, 4, 300), vm.Config{})
	if err != nil {
		return err
	}
	for i := 0; i < 20000; i++ {
		if done, err := m.Step(); done || err != nil {
			break
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go ptrace.Serve(l, m.Heap(), m)
	client, err := ptrace.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()

	const peeks = 20000
	buf := make([]byte, 8)
	bench := func(mem ptrace.Mem) time.Duration {
		start := time.Now()
		for i := 0; i < peeks; i++ {
			mem.Peek(8, buf)
		}
		return time.Since(start)
	}
	localDur := bench(ptrace.Local{H: m.Heap()})
	tcpDur := bench(client)

	// A full reflective stack walk through each channel.
	walk := func(mem ptrace.Mem) (time.Duration, int) {
		w := remoteref.NewLocalWorld(m)
		counter := &ptrace.Counting{Inner: mem}
		w.Mem = counter
		start := time.Now()
		ths, _ := w.Threads()
		for _, t := range ths {
			t.Stack()
		}
		return time.Since(start), int(counter.Peeks)
	}
	lw, lp := walk(ptrace.Local{H: m.Heap()})
	tw, tp := walk(client)
	rows := [][]string{
		{"single peek", fmt.Sprintf("%d ns", localDur.Nanoseconds()/peeks), fmt.Sprintf("%d ns", tcpDur.Nanoseconds()/peeks)},
		{"all-thread stack walk", fmt.Sprintf("%s (%d peeks)", lw.Round(time.Microsecond), lp), fmt.Sprintf("%s (%d peeks)", tw.Round(time.Microsecond), tp)},
	}
	r.table([]string{"operation", "in-process", "TCP (loopback)"}, rows)
	r.note("out-of-process reflection pays one round trip per peek; the paper's GUI protocol batches text,")
	r.note("and both channels leave the application VM untouched.")
	return nil
}

// --- E12 ---

func runE12(r *report) error {
	// Allocation-heavy run with a small heap: many collections during
	// record; replay must reproduce every address. Hashy also prints
	// address-derived hashes, so any address drift is program-visible.
	prog := workloads.Hashy(60, 25)
	o := replaycheck.Options{Seed: 4, HeapBytes: 24 * 1024, PreemptMin: 2, PreemptMax: 12}
	rec, rep, err := replaycheck.CheckReplay(prog, o)
	if err != nil {
		return err
	}
	recHeap, recUsed := replaycheck.HeapDigest(rec.VM)
	repHeap, repUsed := replaycheck.HeapDigest(rep.VM)
	rows := [][]string{
		{"record", fmt.Sprintf("%d", rec.VM.Heap().Collections), fmt.Sprintf("%d", rec.VM.Heap().Grows),
			fmt.Sprintf("%d", recUsed), fmt.Sprintf("%x", recHeap)},
		{"replay", fmt.Sprintf("%d", rep.VM.Heap().Collections), fmt.Sprintf("%d", rep.VM.Heap().Grows),
			fmt.Sprintf("%d", repUsed), fmt.Sprintf("%x", repHeap)},
	}
	r.table([]string{"run", "collections", "grows", "live bytes", "final heap digest"}, rows)
	if rec.VM.Heap().Collections == 0 {
		return fmt.Errorf("no collections happened; shrink the heap")
	}
	if recHeap != repHeap {
		return fmt.Errorf("heap images diverged under GC")
	}
	r.note("copying collections moved every object %d times during record, and replay reproduced the", rec.VM.Heap().Collections)
	r.note("exact same collections and addresses — GC is a deterministic function of the allocation sequence.")
	return nil
}

// fig3Src is the Fig. 3 demonstration program: the assembler records each
// instruction's source line, materialized by the class loader as an int
// array in the VM heap, which LineNumberAt reads remotely.
const fig3Src = `
program fig3
class Main {
  method helper 1 1 {
    load 0
    iconst 2
    mul
    iconst 1
    add
    retv
  }
  method main 0 2 {
    iconst 0
    store 0
  loop:
    load 0
    iconst 50
    cmpge
    jnz out
    load 0
    call Main.helper
    store 1
    load 0
    iconst 1
    add
    store 0
    jmp loop
  out:
    load 1
    print
    halt
  }
}
entry Main.main
`

// --- E13 ---

// runE13 exercises the §3.4 bytecode extension quantitatively: the same
// bytecode debugger runs on a tool VM against a remote application, once
// in-process and once over TCP, and the application executes nothing.
func runE13(r *report) error {
	app := bytecode.MustAssemble(e13Src)
	tool := bytecode.MustAssemble(e13Src)
	tm, _ := tool.MethodByName("Main.tool")
	tool.Entry = tm.ID

	appVM, err := vm.New(app, vm.Config{})
	if err != nil {
		return err
	}
	if err := appVM.Run(); err != nil {
		return err
	}
	appEvents := appVM.Events()

	type row struct {
		channel string
		events  uint64
		dur     time.Duration
		out     string
	}
	var rows []row

	// In-process peeks.
	local, err := vm.New(tool, vm.Config{})
	if err != nil {
		return err
	}
	if err := local.AttachLocalPeer(appVM); err != nil {
		return err
	}
	start := time.Now()
	if err := local.Run(); err != nil {
		return err
	}
	rows = append(rows, row{"in-process", local.Events(), time.Since(start), string(local.Output())})

	// TCP peeks.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go ptrace.Serve(l, appVM.Heap(), appVM)
	client, err := ptrace.Dial(l.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()
	remote, err := vm.New(tool, vm.Config{})
	if err != nil {
		return err
	}
	if err := remote.EnableRemoteReflection(client,
		func() (heap.Addr, heap.Addr, error) { return client.Roots() },
		vm.LayoutHash(app)); err != nil {
		return err
	}
	start = time.Now()
	if err := remote.Run(); err != nil {
		return err
	}
	rows = append(rows, row{"TCP (loopback)", remote.Events(), time.Since(start), string(remote.Output())})

	table := [][]string{}
	for _, rw := range rows {
		table = append(table, []string{rw.channel, fmt.Sprintf("%d", rw.events), rw.dur.Round(time.Microsecond).String()})
	}
	r.table([]string{"peek channel", "tool VM events", "tool run time"}, table)
	if rows[0].out != rows[1].out {
		return fmt.Errorf("tool outputs differ between channels")
	}
	if appVM.Events() != appEvents {
		return fmt.Errorf("application VM executed during inspection")
	}
	r.note("the debugger is bytecode on a tool VM; getf/aload/callv/prints were satisfied by remote")
	r.note("peeks, the outputs match across channels, and the application VM executed 0 events.")
	return nil
}

const e13Src = `
program shared13
class Node {
  field v
  field next ref
  method value 1 1 {
    load 0
    getf 0
    retv
  }
}
class Main {
  static head ref
  method main 0 2 {
    iconst 40
    store 0
    null
    store 1
  b:
    load 0
    jz d
    new Node
    dup
    load 0
    putf 0
    dup
    load 1
    putf 1
    store 1
    load 0
    iconst 1
    sub
    store 0
    jmp b
  d:
    load 1
    puts Main.head
    halt
  }
  method tool 0 2 {
    native "remotedict" 0
    iconst 1
    aload
    getf 2
    getf 0
    store 0
  w:
    load 0
    native "isremote" 1
    jz o
    load 0
    callv "value" 1
    gets Main.head
    pop
    store 1
    load 0
    getf 1
    store 0
    jmp w
  o:
    load 1
    print
    halt
  }
}
entry Main.main
`

// --- E14 ---

// runE14 demonstrates the paper's closing claim — DejaVu as a platform
// for a family of replay-based tools: a lockset race detector and a
// profiler run over deterministic replays, so their findings reproduce
// exactly across analyses of one recorded execution.
func runE14(r *report) error {
	rows := [][]string{}
	for _, tc := range []struct {
		name string
		prog *bytecode.Program
	}{
		{"fig1ab (racy)", workloads.Fig1AB()},
		{"bank (locked)", workloads.Bank(4, 8, 500)},
		{"prodcons (wait/notify)", workloads.ProdCons(2, 2, 4, 200)},
	} {
		o := replaycheck.Options{Seed: 4, PreemptMin: 2, PreemptMax: 10, HeapBytes: 1 << 22}
		rec, err := replaycheck.Record(tc.prog, o)
		if err != nil || rec.RunErr != nil {
			return fmt.Errorf("%s: %v %v", tc.name, err, rec.RunErr)
		}
		analyze := func() (*tools.RaceDetector, *tools.Profiler) {
			rd := tools.NewRaceDetector()
			prof := tools.NewProfiler(tc.prog)
			o2 := replaycheck.Options{HeapBytes: 1 << 22}
			o2.TweakVM = func(c *vm.Config) {
				c.MemHook = rd
				c.SyncHook = rd
				c.Observer = prof
			}
			rep, err := replaycheck.Replay(tc.prog, rec.Trace, o2)
			if err != nil || rep.RunErr != nil {
				panic(fmt.Sprintf("%s: %v %v", tc.name, err, rep.RunErr))
			}
			return rd, prof
		}
		rd1, prof := analyze()
		rd2, _ := analyze()
		det := "identical"
		if len(rd1.Races()) != len(rd2.Races()) {
			det = "NONDETERMINISTIC"
		}
		rows = append(rows, []string{
			tc.name,
			fmt.Sprintf("%d", rd1.Accesses),
			fmt.Sprintf("%d", len(rd1.Races())),
			det,
			fmt.Sprintf("%d", prof.Total),
		})
		if det != "identical" {
			return fmt.Errorf("%s: race findings differ between analyses of one trace", tc.name)
		}
	}
	r.table([]string{"workload", "accesses checked", "races found", "re-analysis", "profiled events"}, rows)
	r.note("the racy Fig. 1 program is flagged, the disciplined workloads are clean, and two analyses")
	r.note("of the same trace agree exactly — heavy dynamic analysis made repeatable by replay.")
	return nil
}

// --- E15 ---

// runE15 quantifies the crash-tolerance layer (no paper analog; rr and
// iReplayer motivate it — see ISSUE 3): what each durability policy costs
// at record time, and how much of an execution survives a crash at each
// point of the journal, with every salvage held to the prefix property.
func runE15(r *report) error {
	// A tight preemption interval keeps the switch stream busy, so the
	// journal has enough entries for the crash sweep to bite mid-stream.
	prog := func() *bytecode.Program { return workloads.Bank(2, 4, 300) }
	o := replaycheck.Options{Seed: 5, HostRand: 5, KeepEvents: 1 << 20,
		PreemptMin: 2, PreemptMax: 9, ChunkBytes: 64}

	// Durability policy cost, against a real file so the fsyncs are real.
	rows := [][]string{}
	for _, p := range []trace.SyncPolicy{trace.SyncNone, trace.SyncChunk, trace.SyncEvent} {
		f, err := os.CreateTemp("", "dvbench-e15-*.dvt")
		if err != nil {
			return err
		}
		po := o
		po.Sync = p
		start := time.Now()
		rec, rerr := replaycheck.RecordTo(prog(), f, po)
		elapsed := time.Since(start)
		st, _ := f.Stat()
		f.Close()
		os.Remove(f.Name())
		if rerr != nil || rec.RunErr != nil {
			return fmt.Errorf("record -sync %v: %v %v", p, rerr, rec.RunErr)
		}
		rows = append(rows, []string{
			fmt.Sprint(p),
			fmt.Sprintf("%d", rec.Events),
			fmt.Sprintf("%d", st.Size()),
			elapsed.Round(time.Microsecond).String(),
		})
	}
	r.table([]string{"sync policy", "events", "trace bytes", "record wall time"}, rows)

	// Crash sweep: cut the journal at fractions of its length, salvage,
	// replay, and check the replayed prefix against the recorded run.
	var buf bytes.Buffer
	ref, err := replaycheck.RecordTo(prog(), &buf, o)
	if err != nil || ref.RunErr != nil {
		return fmt.Errorf("reference record: %v %v", err, ref.RunErr)
	}
	refEvents := ref.Digest.Recent()
	stream := buf.Bytes()
	rows = nil
	for _, pct := range []int{1, 10, 25, 50, 75, 90, 99, 100} {
		cut := len(stream) * pct / 100
		var salvaged bytes.Buffer
		rep, err := trace.RecoverStream(bytes.NewReader(stream[:cut]), &salvaged)
		if err != nil {
			rows = append(rows, []string{fmt.Sprintf("%d%%", pct),
				fmt.Sprintf("%d", cut), "-", "-", "header torn: unsalvageable"})
			continue
		}
		res, err := replaycheck.Replay(prog(), salvaged.Bytes(), replaycheck.Options{
			KeepEvents:  1 << 20,
			TweakEngine: func(c *core.Config) { c.PartialTrace = !rep.EndEvent },
		})
		if err != nil {
			return fmt.Errorf("cut %d: replay setup: %v", cut, err)
		}
		got := res.Digest.Recent()
		if len(got) > len(refEvents) {
			return fmt.Errorf("cut %d: salvage replayed more events than recorded", cut)
		}
		for i := range got {
			if got[i] != refEvents[i] {
				return fmt.Errorf("cut %d: silent divergence at event %d", cut, i)
			}
		}
		outcome := fmt.Sprintf("partial: exact prefix, stopped at salvage point")
		if res.RunErr == nil {
			outcome = "complete replay"
		}
		rows = append(rows, []string{fmt.Sprintf("%d%%", pct),
			fmt.Sprintf("%d", cut),
			fmt.Sprintf("%d", rep.Events),
			fmt.Sprintf("%d/%d", len(got), len(refEvents)),
			outcome})
	}
	r.table([]string{"crash point", "bytes kept", "trace events salvaged", "events replayed", "outcome"}, rows)
	r.note("every salvage replayed an exact event-by-event prefix of the recorded execution;")
	r.note("a crash costs only the torn tail, never the recording.")
	return nil
}

// --- E16 ---

// runE16 quantifies the segmented-journal layer (ISSUE 4): what durable
// per-segment checkpoints cost as the rotation threshold shrinks, and what
// they buy — replay seeded from the nearest checkpoint instead of from the
// beginning of the recording.
func runE16(r *report) error {
	prog := func() *bytecode.Program { return workloads.Events(400) }
	base := replaycheck.Options{Seed: 5, HostRand: 5, KeepEvents: 1 << 20,
		PreemptMin: 2, PreemptMax: 9, ChunkBytes: 64, HeapBytes: 1 << 17}
	replayOpts := replaycheck.Options{KeepEvents: 1 << 20, HeapBytes: 1 << 17}

	// Checkpoint overhead vs segment size: smaller segments mean more
	// rotation boundaries, each paying a durable VM snapshot.
	rows := [][]string{}
	for _, rotate := range []int{0, 512, 128, 32} {
		fs := memfs.New()
		o := base
		o.RotateEvents = rotate
		start := time.Now()
		rec, err := replaycheck.RecordJournal(prog(), fs, o)
		elapsed := time.Since(start)
		if err != nil || rec.RunErr != nil {
			return fmt.Errorf("record journal (rotate %d): %v %v", rotate, err, rec.RunErr)
		}
		j, err := trace.OpenJournal(fs)
		if err != nil {
			return fmt.Errorf("open journal (rotate %d): %v", rotate, err)
		}
		var segBytes, ckBytes int64
		for _, s := range j.Manifest.Segments {
			segBytes += s.Bytes
		}
		for _, c := range j.Manifest.Checkpoints {
			if data, ok := fs.ReadFile(c.Name); ok {
				ckBytes += int64(len(data))
			}
		}
		label := fmt.Sprintf("%d events", rotate)
		if rotate == 0 {
			label = "none (single segment)"
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%d", j.Segments()),
			fmt.Sprintf("%d", len(j.Manifest.Checkpoints)),
			fmt.Sprintf("%d", segBytes),
			fmt.Sprintf("%d", ckBytes),
			elapsed.Round(time.Microsecond).String(),
		})
	}
	r.table([]string{"rotate threshold", "segments", "checkpoints", "trace bytes", "checkpoint bytes", "record wall time"}, rows)
	r.note("checkpoint bytes scale with boundary count (each is a VM snapshot of the allocated heap at the seal);")
	r.note("the trace payload itself is unchanged by rotation.")

	// Recovery cost: replay the same journal from zero and seeded from the
	// last durable checkpoint. The seeded run replays only the final
	// segment suffix, so its cost is O(segment), not O(trace).
	fs := memfs.New()
	o := base
	o.RotateEvents = 128
	rec, err := replaycheck.RecordJournal(prog(), fs, o)
	if err != nil || rec.RunErr != nil {
		return fmt.Errorf("record journal: %v %v", err, rec.RunErr)
	}
	const reps = 5
	bestZero, bestSeed := time.Duration(1<<62), time.Duration(1<<62)
	var zero, seeded *replaycheck.Result
	var info *replaycheck.SeedInfo
	for i := 0; i < reps; i++ {
		start := time.Now()
		z, _, err := replaycheck.ReplayJournal(prog(), fs, replayOpts)
		if d := time.Since(start); d < bestZero {
			bestZero = d
		}
		if err != nil || z.RunErr != nil {
			return fmt.Errorf("from-zero replay: %v %v", err, z.RunErr)
		}
		zero = z
		start = time.Now()
		s, si, err := replaycheck.ReplayJournalFrom(prog(), fs, 1<<62, replayOpts)
		if d := time.Since(start); d < bestSeed {
			bestSeed = d
		}
		if err != nil || s.RunErr != nil {
			return fmt.Errorf("seeded replay: %v %v", err, s.RunErr)
		}
		seeded, info = s, si
	}
	if info.Checkpoint == nil {
		return fmt.Errorf("seeded replay found no checkpoint to seed from")
	}
	if seeded.Events != zero.Events || string(seeded.Output) != string(zero.Output) {
		return fmt.Errorf("seeded replay diverged from from-zero replay")
	}
	r.table([]string{"replay", "starts at event", "events executed", "wall time (best of 5)"}, [][]string{
		{"from zero", "0", fmt.Sprintf("%d", zero.Events), bestZero.Round(time.Microsecond).String()},
		{fmt.Sprintf("seeded (checkpoint %d)", info.Checkpoint.Index),
			fmt.Sprintf("%d", info.VMEvents),
			fmt.Sprintf("%d", zero.Events-info.VMEvents),
			bestSeed.Round(time.Microsecond).String()},
	})
	r.note("both replays land on identical final state; the seeded one executes only the suffix")
	r.note("after its checkpoint — attaching a debugger deep into a long recording costs one segment.")
	return nil
}

// --- E17 ---

// runE17 measures what the observability subsystem (ISSUE 5) costs and
// proves what it may not cost: attaching a metrics registry to record and
// replay must leave the trace bytes and the replay digest bit-identical —
// metrics live outside the logical clock — while the wall-time overhead of
// the host-side atomics stays small.
func runE17(r *report) error {
	prog := func() *bytecode.Program { return workloads.Events(400) }
	base := replaycheck.Options{Seed: 7, HostRand: 7, PreemptMin: 2, PreemptMax: 9, HeapBytes: 1 << 17}
	reg := obs.NewRegistry()
	withObs := base
	withObs.TweakEngine = func(cfg *core.Config) { cfg.Obs = reg }

	const reps = 5
	type phase struct {
		name      string
		off, on   time.Duration
		offD, onD uint64 // digests, compared after the sweep
	}
	var recPhase, repPhase phase
	recPhase.name, repPhase.name = "record", "replay"
	var tracePlain, traceObs []byte
	for i := 0; i < reps; i++ {
		start := time.Now()
		rp, err := replaycheck.Record(prog(), base)
		d := time.Since(start)
		if err != nil || rp.RunErr != nil {
			return fmt.Errorf("record (metrics off): %v %v", err, rp.RunErr)
		}
		if recPhase.off == 0 || d < recPhase.off {
			recPhase.off = d
		}
		tracePlain, recPhase.offD = rp.Trace, rp.Digest.Sum()

		start = time.Now()
		ro, err := replaycheck.Record(prog(), withObs)
		d = time.Since(start)
		if err != nil || ro.RunErr != nil {
			return fmt.Errorf("record (metrics on): %v %v", err, ro.RunErr)
		}
		if recPhase.on == 0 || d < recPhase.on {
			recPhase.on = d
		}
		traceObs, recPhase.onD = ro.Trace, ro.Digest.Sum()

		start = time.Now()
		pp, err := replaycheck.Replay(prog(), tracePlain, base)
		d = time.Since(start)
		if err != nil || pp.RunErr != nil {
			return fmt.Errorf("replay (metrics off): %v %v", err, pp.RunErr)
		}
		if repPhase.off == 0 || d < repPhase.off {
			repPhase.off = d
		}
		repPhase.offD = pp.Digest.Sum()

		start = time.Now()
		po, err := replaycheck.Replay(prog(), traceObs, withObs)
		d = time.Since(start)
		if err != nil || po.RunErr != nil {
			return fmt.Errorf("replay (metrics on): %v %v", err, po.RunErr)
		}
		if repPhase.on == 0 || d < repPhase.on {
			repPhase.on = d
		}
		repPhase.onD = po.Digest.Sum()
	}
	if !bytes.Equal(tracePlain, traceObs) {
		return fmt.Errorf("metrics perturbed the trace: %d vs %d bytes", len(tracePlain), len(traceObs))
	}
	if recPhase.offD != recPhase.onD || repPhase.offD != repPhase.onD {
		return fmt.Errorf("metrics perturbed the execution digest")
	}
	overhead := func(p phase) string {
		if p.off <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(p.on)-float64(p.off))/float64(p.off))
	}
	rows := [][]string{}
	for _, p := range []phase{recPhase, repPhase} {
		rows = append(rows, []string{p.name,
			p.off.Round(time.Microsecond).String(),
			p.on.Round(time.Microsecond).String(),
			overhead(p),
			"identical"})
	}
	r.table([]string{"phase", "metrics off (best of 5)", "metrics on (best of 5)", "overhead", "trace+digest"}, rows)
	r.note("registry after the sweep: %d yield points, %d switches, %d series total",
		reg.Counter("dv_engine_yield_points_total").Value(),
		reg.Counter("dv_engine_switches_total").Value(),
		len(reg.Snapshot()))
	r.note("observability is perturbation-free by construction: counters are host-side atomics")
	r.note("outside the logical clock, so enabling them cannot move a single replayed event.")
	return nil
}

// --- E19 ---

// runE19 gives the interpreter-speed trajectory its first optimizer
// baseline: Mev/s for certified-optimized vs unoptimized builds across
// the bench matrix, with the replay-identity assertions inline — the
// optimized build must replay its own recording bit for bit and must
// produce the same output bytes as the unoptimized build under the same
// seeded schedule. Results land in BENCH_E19.json so later sessions can
// track the trajectory.
func runE19(r *report) error {
	matrix := []struct {
		name string
		prog func() *bytecode.Program
	}{
		// expr is the optimizer's showcase (naive codegen); sieve and bank
		// are already-tight controls where the win should be near zero.
		{"expr", func() *bytecode.Program { return workloads.Expr(300_000) }},
		{"sieve", benchWorkloads["sieve"]},
		{"bank", benchWorkloads["bank"]},
	}
	type row struct {
		Workload     string  `json:"workload"`
		InstrsBefore int     `json:"instrs_before"`
		InstrsAfter  int     `json:"instrs_after"`
		EventsUnopt  uint64  `json:"events_unopt"`
		EventsOpt    uint64  `json:"events_opt"`
		MevsUnopt    float64 `json:"mevs_unopt"`
		MevsOpt      float64 `json:"mevs_opt"`
		WallSpeedup  float64 `json:"wall_speedup"`
		ReplayDigest string  `json:"replay_digest"`
	}
	const reps = 3
	base := replaycheck.Options{Seed: 9, HostRand: 9, HeapBytes: 1 << 20}
	var out []row
	rows := [][]string{}
	for _, m := range matrix {
		prog := m.prog()
		res, err := opt.Optimize(prog, opt.Options{Natives: vm.NativeSignature})
		if err != nil {
			return fmt.Errorf("%s: optimize: %v", m.name, err)
		}
		if !res.Certified {
			return fmt.Errorf("%s: optimizer refused:\n%s", m.name, res.Report.Text())
		}
		run := func(p *bytecode.Program) (uint64, time.Duration, []byte, error) {
			var best time.Duration
			var events uint64
			var output []byte
			for i := 0; i < reps; i++ {
				start := time.Now()
				rr, err := replaycheck.RunOff(p, base)
				d := time.Since(start)
				if err != nil || rr.RunErr != nil {
					return 0, 0, nil, fmt.Errorf("%v %v", err, rr.RunErr)
				}
				if best == 0 || d < best {
					best = d
				}
				events, output = rr.Events, rr.Output
			}
			return events, best, output, nil
		}
		uev, ut, uout, err := run(prog)
		if err != nil {
			return fmt.Errorf("%s unoptimized: %v", m.name, err)
		}
		oev, ot, oout, err := run(res.Program)
		if err != nil {
			return fmt.Errorf("%s optimized: %v", m.name, err)
		}
		if !bytes.Equal(uout, oout) {
			return fmt.Errorf("%s: output diverged between builds", m.name)
		}
		// The optimized build must still record a trace its replay
		// reproduces bit for bit — the digest assertion is CheckReplay's.
		orec, _, err := replaycheck.CheckReplay(res.Program, base)
		if err != nil {
			return fmt.Errorf("%s: optimized record/replay: %v", m.name, err)
		}
		mevs := func(ev uint64, d time.Duration) float64 {
			if d <= 0 {
				return 0
			}
			return float64(ev) / 1e6 / d.Seconds()
		}
		rw := row{
			Workload:     m.name,
			InstrsBefore: res.InstrsBefore,
			InstrsAfter:  res.InstrsAfter,
			EventsUnopt:  uev,
			EventsOpt:    oev,
			MevsUnopt:    mevs(uev, ut),
			MevsOpt:      mevs(oev, ot),
			WallSpeedup:  float64(ut) / float64(ot),
			ReplayDigest: fmt.Sprintf("%016x", orec.Digest.Sum()),
		}
		out = append(out, rw)
		rows = append(rows, []string{m.name,
			fmt.Sprintf("%d -> %d", rw.InstrsBefore, rw.InstrsAfter),
			fmt.Sprintf("%d -> %d", uev, oev),
			fmt.Sprintf("%.1f", rw.MevsUnopt),
			fmt.Sprintf("%.1f", rw.MevsOpt),
			fmt.Sprintf("%.2fx", rw.WallSpeedup),
			"identical"})
	}
	r.table([]string{"workload", "instrs", "events (unopt -> opt)", "Mev/s unopt", "Mev/s opt", "wall speedup", "replay"}, rows)
	blob, _ := json.MarshalIndent(out, "", "  ")
	if err := os.WriteFile("BENCH_E19.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write BENCH_E19.json: %v", err)
	}
	r.note("wrote BENCH_E19.json; events drop because optimized builds execute fewer")
	r.note("instructions for the same observable work — the certifier proves the same")
	r.note("yield points, monitors, and output survive, so the schedule is unperturbed.")
	return nil
}

// --- E20 ---

// runE20 quantifies the always-on flight recorder (ISSUE 8): what the
// bounded in-memory ring costs at record time across window sizes versus
// a full on-disk journal and versus recording off — with the digest
// assertion that every mode observes the *same* execution (the ring is a
// passive sink; retention is not perturbation) — plus the schedule
// minimizer's reduction on the Fig. 1 race, the artifact a flushed window
// feeds into. Results land in BENCH_E20.json.
func runE20(r *report) error {
	prog := benchWorkloads["prodcons"]()
	base := replaycheck.Options{Seed: 7, HostRand: 7, HeapBytes: 1 << 22}
	const reps = 3

	timeRun := func(f func() (*replaycheck.Result, error)) (*replaycheck.Result, time.Duration, error) {
		var best time.Duration
		var res *replaycheck.Result
		for i := 0; i < reps; i++ {
			start := time.Now()
			rr, err := f()
			d := time.Since(start)
			if err != nil {
				return nil, 0, err
			}
			if rr.RunErr != nil {
				return nil, 0, rr.RunErr
			}
			if best == 0 || d < best {
				best = d
			}
			res = rr
		}
		return res, best, nil
	}

	type row struct {
		Mode        string  `json:"mode"`
		Window      string  `json:"window"`
		WallMs      float64 `json:"wall_ms"`
		Mevs        float64 `json:"mevs"`
		OverheadPct float64 `json:"overhead_pct"`
		Digest      string  `json:"digest"`
	}
	var overhead []row
	rows := [][]string{}

	off, offT, err := timeRun(func() (*replaycheck.Result, error) { return replaycheck.RunOff(prog, base) })
	if err != nil {
		return fmt.Errorf("off: %v", err)
	}

	jdir, err := os.MkdirTemp("", "e20-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	full, fullT, err := timeRun(func() (*replaycheck.Result, error) {
		sub := fmt.Sprintf("r%d", len(overhead))
		os.Mkdir(jdir+"/"+sub, 0o755)
		fs, err := trace.NewDirFS(jdir + "/" + sub)
		if err != nil {
			return nil, err
		}
		return replaycheck.RecordJournal(prog, fs, base)
	})
	if err != nil {
		return fmt.Errorf("full journal: %v", err)
	}
	want := full.Digest.Sum()
	if off.Digest.Sum() != want {
		return fmt.Errorf("recording off and full-journal digests diverge: the journal sink perturbed the run")
	}

	add := func(mode, window string, res *replaycheck.Result, d time.Duration) {
		rw := row{
			Mode: mode, Window: window,
			WallMs:      float64(d.Microseconds()) / 1000,
			Mevs:        float64(res.Events) / 1e6 / d.Seconds(),
			OverheadPct: (float64(d)/float64(offT) - 1) * 100,
			Digest:      fmt.Sprintf("%016x", res.Digest.Sum()),
		}
		overhead = append(overhead, rw)
		rows = append(rows, []string{mode, window,
			fmt.Sprintf("%.1f", rw.WallMs),
			fmt.Sprintf("%.1f", rw.Mevs),
			fmt.Sprintf("%+.1f%%", rw.OverheadPct),
			"identical"})
	}
	add("off", "-", off, offT)
	add("journal", "unbounded", full, fullT)

	var lastRing *flightrec.Ring
	for _, win := range []int{512, 4096, 32768} {
		win := win
		res, d, err := timeRun(func() (*replaycheck.Result, error) {
			ring, err := flightrec.NewRing(vm.ProgramHash(prog), flightrec.Options{WindowEvents: win})
			if err != nil {
				return nil, err
			}
			lastRing = ring
			return replaycheck.RecordSink(prog, ring, base)
		})
		if err != nil {
			return fmt.Errorf("flight %d: %v", win, err)
		}
		if res.Digest.Sum() != want {
			return fmt.Errorf("flight window %d: digest diverged — the ring perturbed the run", win)
		}
		add("flight", fmt.Sprintf("%d ev", win), res, d)
	}
	r.table([]string{"mode", "window", "wall ms", "Mev/s", "overhead vs off", "execution"}, rows)

	// The final ring flushes to a journal that opens, positioned mid-run.
	fdir, err := os.MkdirTemp("", "e20-flush-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fdir)
	fi, err := lastRing.Flush(fdir+"/window", "bench")
	if err != nil {
		return fmt.Errorf("flush: %v", err)
	}
	ffs, err := trace.NewDirFS(fdir + "/window")
	if err != nil {
		return err
	}
	if _, err := trace.OpenJournal(ffs); err != nil {
		return fmt.Errorf("flushed window does not open: %v", err)
	}
	r.note("flushed 32768-event window: origin %d, %d segment(s), %d bytes, complete=%v",
		fi.Origin, fi.Segments, fi.Bytes, fi.Complete)

	// Schedule minimization on the Fig. 1 race (the E14 tool family's
	// canonical target): ddmin must cut the recorded switches by >= 50%.
	mo := replaycheck.Options{Seed: 4, PreemptMin: 2, PreemptMax: 10, HeapBytes: 1 << 22}
	rec, err := replaycheck.Record(workloads.Fig1AB(), mo)
	if err != nil || rec.RunErr != nil {
		return fmt.Errorf("minimize record: %v %v", err, rec.RunErr)
	}
	src, err := trace.NewReader(rec.Trace, vm.ProgramHash(workloads.Fig1AB()))
	if err != nil {
		return fmt.Errorf("minimize trace: %v", err)
	}
	res, err := minimize.Run(workloads.Fig1AB(), src, minimize.Options{Record: mo})
	if err != nil {
		return fmt.Errorf("minimize: %v", err)
	}
	rep := res.Report
	r.note("minimized the fig1ab %s repro: %d -> %d switch(es), %.0f%% reduction, %d candidates",
		rep.Fault, rep.OriginalSwitches, rep.KeptSwitches, rep.ReductionPct, rep.Candidates)
	if rep.ReductionPct < 50 {
		return fmt.Errorf("minimizer reduced only %.0f%%, want >= 50%%", rep.ReductionPct)
	}

	out := struct {
		Overhead []row           `json:"overhead"`
		Minimize minimize.Report `json:"minimize"`
	}{overhead, rep}
	blob, _ := json.MarshalIndent(out, "", "  ")
	if err := os.WriteFile("BENCH_E20.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write BENCH_E20.json: %v", err)
	}
	r.note("wrote BENCH_E20.json; identical digests across off/journal/flight prove the ring")
	r.note("is pay-for-retention only — the execution it observes is the one that ran.")
	return nil
}

// --- E21 ---

// runE21 quantifies chaos resilience (ISSUE 9): a pool of sessions is
// driven through time travels that force durable checkpoint re-seeds —
// the storage read path — while an injected EIO fault takes the backing
// store away under a third of the operations. The containment contract
// under measurement: no travel ever crashes the pool (faults become
// structured refusals), every quarantined session is repaired by the
// supervised retry loop without operator action, and after the storm
// every journal still replays bit-identical to its recording digest. The
// identical storm without chaos is the baseline for shed counts and for
// p50/p99 travel latency.
func runE21(r *report) error {
	const (
		pool   = 6
		rounds = 10
	)

	type result struct {
		Scenario    string  `json:"scenario"`
		Sessions    int     `json:"sessions"`
		Survived    int     `json:"survived"`
		Quarantined int     `json:"quarantined_sessions"`
		Recoveries  uint64  `json:"recoveries"`
		Shed        int     `json:"shed_travels"`
		OK          int     `json:"ok_travels"`
		P50Ms       float64 `json:"travel_p50_ms"`
		P99Ms       float64 `json:"travel_p99_ms"`
		Match       int     `json:"digests_match"`
	}

	pct := func(lats []time.Duration, p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		s := append([]time.Duration(nil), lats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return float64(s[int(p*float64(len(s)-1)+0.5)].Microseconds()) / 1000
	}

	run := func(scenario string, chaotic bool) (*result, error) {
		root, err := os.MkdirTemp("", "dvbench-e21-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)

		// EIO on every op while armed; the storm arms it only around the
		// targeted travels, so each hit is a dead disk under exactly one
		// command. Disarmed, the plan is inert and the pool runs clean.
		st := chaosfs.New(chaosfs.Fault{Kind: chaosfs.EIO})
		st.Disarm()
		cfg := sessions.Config{
			DataRoot:  root,
			RetryBase: 20 * time.Millisecond,
			RetryMax:  100 * time.Millisecond,
			RetrySeed: 21,
		}
		if chaotic {
			cfg.WrapFS = func(_ string, fs trace.FS) trace.FS { return st.Wrap(fs) }
		}
		m, err := sessions.NewManager(cfg)
		if err != nil {
			return nil, err
		}

		// One probe recording discovers the event horizon, then the pool
		// is built fault-free: each session rotates every 2 logged events
		// (a durable checkpoint per segment) and opens positioned at the
		// last event, so traveling near zero and back is always a
		// re-seed from disk — the path the fault window can take away.
		probe, err := m.Create(sessions.CreateRequest{Program: "workload:fig1ab", Seed: 7, RotateEvents: 2})
		if err != nil {
			return nil, fmt.Errorf("probe create: %v", err)
		}
		events := probe.Events
		if err := m.Kill(probe.ID, true); err != nil {
			return nil, err
		}
		ids := make([]string, pool)
		for i := range ids {
			info, err := m.Create(sessions.CreateRequest{
				Program: "workload:fig1ab", Seed: 7,
				RotateEvents: 2, FromEvent: events - 1,
			})
			if err != nil {
				return nil, fmt.Errorf("create %d: %v", i, err)
			}
			ids[i] = info.ID
		}

		res := &result{Scenario: scenario, Sessions: pool}
		var lats []time.Duration
		targets := []uint64{1, events - 1}
		for round := 0; round < rounds; round++ {
			for _, id := range ids {
				// Round 0 is every session's first durable re-seed (its
				// in-memory anchor sits at the far end) — the one command
				// per session guaranteed to touch disk. The storm takes
				// the disk away under all of them at once; after repair
				// the rebuilt debugger serves from memory, so the storm's
				// blast radius is exactly one quarantine per session.
				hit := chaotic && round == 0
				if hit {
					st.Arm()
				}
				t0 := time.Now()
				_, err := m.Travel(id, targets[round%2])
				d := time.Since(t0)
				if hit {
					st.Disarm()
				}
				switch {
				case err == nil:
					res.OK++
					lats = append(lats, d)
				default:
					var rf *sessions.Refusal
					if !errors.As(err, &rf) {
						return nil, fmt.Errorf("travel %s round %d: non-refusal error %v", id, round, err)
					}
					res.Shed++ // structured refusal: the fault was contained
				}
			}
		}

		// Heal the disk and let the supervised repair loop finish its job:
		// every session must come back without operator action.
		st.Disarm()
		deadline := time.Now().Add(30 * time.Second)
		for _, id := range ids {
			for {
				info, err := m.Info(id)
				if err != nil {
					return nil, err
				}
				if info.State == "active" {
					res.Survived++
					res.Recoveries += info.Recoveries
					if info.Recoveries > 0 {
						res.Quarantined++
					}
					break
				}
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}

		// The acceptance bar: storage faults cost availability windows,
		// never fidelity. Every journal replays to its recording digest.
		for _, id := range ids {
			info, digest, err := m.VerifyReplay(id)
			if err == nil && digest == info.Digest {
				res.Match++
			}
		}
		res.P50Ms, res.P99Ms = pct(lats, 0.50), pct(lats, 0.99)
		return res, nil
	}

	baseline, err := run("fault-free", false)
	if err != nil {
		return err
	}
	chaos, err := run("eio-storm", true)
	if err != nil {
		return err
	}

	rows := make([][]string, 0, 2)
	for _, res := range []*result{baseline, chaos} {
		rows = append(rows, []string{
			res.Scenario, fmt.Sprint(res.Sessions), fmt.Sprint(res.Survived),
			fmt.Sprint(res.Quarantined), fmt.Sprint(res.Recoveries),
			fmt.Sprint(res.Shed), fmt.Sprint(res.OK),
			fmt.Sprintf("%.2f", res.P50Ms), fmt.Sprintf("%.2f", res.P99Ms),
			fmt.Sprintf("%d/%d", res.Match, res.Sessions),
		})
	}
	r.table([]string{"scenario", "sessions", "survived", "quarantined", "recoveries",
		"shed", "ok travels", "p50 ms", "p99 ms", "digests match"}, rows)

	if baseline.Shed != 0 || baseline.Survived != pool || baseline.Match != pool {
		return fmt.Errorf("fault-free baseline not clean: %+v", baseline)
	}
	if chaos.Survived != pool {
		return fmt.Errorf("only %d/%d sessions survived the storm", chaos.Survived, pool)
	}
	if chaos.Quarantined == 0 || chaos.Recoveries == 0 {
		return fmt.Errorf("the storm quarantined nothing (recoveries=%d) — the fault window missed", chaos.Recoveries)
	}
	if chaos.Match != pool {
		return fmt.Errorf("only %d/%d sessions replay to their recording digest after the storm", chaos.Match, pool)
	}

	out := struct {
		Baseline *result `json:"baseline"`
		Chaos    *result `json:"chaos"`
	}{baseline, chaos}
	blob, _ := json.MarshalIndent(out, "", "  ")
	if err := os.WriteFile("BENCH_E21.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write BENCH_E21.json: %v", err)
	}
	r.note("wrote BENCH_E21.json; %d quarantines all healed by the supervisor and every", chaos.Recoveries)
	r.note("journal still replays bit-identical — faults cost latency and sheds, never fidelity.")
	return nil
}

// --- E22 ---

// e22Run is one record or replay of an E22 workload, driven to completion
// by drive (VM.Run or a Step loop).
type e22Run struct {
	trace  []byte
	output []byte
	events uint64
	digest uint64
	took   time.Duration // drive alone: no assembly, no heap-image setup
}

// e22Exec records prog (traceIn == nil) or replays traceIn with the
// seeded FakeTime/preemption set-up replaycheck uses, timing drive alone.
// observe installs the digest observer; timed runs leave it off.
func e22Exec(prog *bytecode.Program, traceIn []byte, observe bool, drive func(*vm.VM) error) (*e22Run, error) {
	ecfg := core.DefaultConfig(core.ModeRecord)
	if traceIn != nil {
		ecfg = core.DefaultConfig(core.ModeReplay)
		ecfg.TraceIn = traceIn
		ecfg.Time = &core.FakeTime{Base: -1 << 40}
		ecfg.Preempt = nil
	} else {
		ecfg.Time = &core.FakeTime{Base: 1_000_000, Step: 3}
		ecfg.Preempt = core.NewSeededPreemptor(21, 5, 60)
	}
	ecfg.ProgHash = vm.ProgramHash(prog)
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	cfg := vm.Config{HeapBytes: 1 << 20, Engine: eng, IdleSleep: 1}
	d := replaycheck.NewDigest()
	if observe {
		cfg.Observer = d
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := drive(m); err != nil {
		return nil, err
	}
	return &e22Run{
		trace:  eng.End(),
		output: append([]byte(nil), m.Output()...),
		events: m.Events(),
		digest: d.Sum(),
		took:   time.Since(start),
	}, nil
}

// stepLoop drives m one instruction per Step call, as the debugger and
// session travel do.
func stepLoop(m *vm.VM) error {
	for {
		done, err := m.Step()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// runE22 measures the one interpreter under its two drivers: record-mode
// Mev/s for a Step loop (one instruction per call over the unfused
// stream, eager flushes, a journal poll per instruction — the debugger's
// and session travel's path) vs VM.Run (whole scheduling slices over the
// fused stream). Identity assertions run inline: both drivers must
// record bit-identical trace bytes and output, and the Run trace must
// replay to the recording's digest under both. Results land in
// BENCH_E22.json.
func runE22(r *report) error {
	type row struct {
		Workload     string  `json:"workload"`
		Events       uint64  `json:"events"`
		MevsStep     float64 `json:"mevs_step"`
		MevsRun      float64 `json:"mevs_run"`
		RunOverStep  float64 `json:"run_over_step"`
		TraceBytes   int     `json:"trace_bytes"`
		ReplayDigest string  `json:"replay_digest"`
	}
	type doc struct {
		Workloads          []row   `json:"workloads"`
		GeomeanRunOverStep float64 `json:"geomean_run_over_step"`
		DigestsMatch       bool    `json:"digests_match"`
	}
	const reps = 5
	run := (*vm.VM).Run
	mevs := func(ev uint64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(ev) / 1e6 / d.Seconds()
	}
	var out doc
	out.DigestsMatch = true
	rows := [][]string{}
	logSum := 0.0
	for _, name := range sortedKeys(benchWorkloads) {
		prog := benchWorkloads[name]
		// Timed reps alternate between the drivers so ambient machine
		// noise lands on both sides equally; best-of-N per side. The
		// observer stays off: its per-event callback is harness cost.
		var st, rt time.Duration
		for i := 0; i < reps; i++ {
			s, err := e22Exec(prog(), nil, false, stepLoop)
			if err != nil {
				return fmt.Errorf("%s step: %v", name, err)
			}
			if st == 0 || s.took < st {
				st = s.took
			}
			f, err := e22Exec(prog(), nil, false, run)
			if err != nil {
				return fmt.Errorf("%s run: %v", name, err)
			}
			if rt == 0 || f.took < rt {
				rt = f.took
			}
		}
		// Identity runs keep the observer and are not timed.
		srec, err := e22Exec(prog(), nil, true, stepLoop)
		if err != nil {
			return fmt.Errorf("%s step: %v", name, err)
		}
		rrec, err := e22Exec(prog(), nil, true, run)
		if err != nil {
			return fmt.Errorf("%s run: %v", name, err)
		}
		if srec.events != rrec.events {
			return fmt.Errorf("%s: event counts diverged (step %d, run %d)", name, srec.events, rrec.events)
		}
		if !bytes.Equal(srec.trace, rrec.trace) {
			return fmt.Errorf("%s: trace bytes diverged between Step and Run", name)
		}
		if !bytes.Equal(srec.output, rrec.output) {
			return fmt.Errorf("%s: output diverged between Step and Run", name)
		}
		srep, err := e22Exec(prog(), rrec.trace, true, stepLoop)
		if err != nil {
			return fmt.Errorf("%s step replay: %v", name, err)
		}
		rrep, err := e22Exec(prog(), rrec.trace, true, run)
		if err != nil {
			return fmt.Errorf("%s run replay: %v", name, err)
		}
		if srep.digest != rrep.digest || rrep.digest != rrec.digest || srec.digest != rrec.digest {
			return fmt.Errorf("%s: digests diverged between Step and Run", name)
		}
		ratio := float64(st) / float64(rt)
		logSum += math.Log(ratio)
		rw := row{
			Workload:     name,
			Events:       rrec.events,
			MevsStep:     mevs(rrec.events, st),
			MevsRun:      mevs(rrec.events, rt),
			RunOverStep:  ratio,
			TraceBytes:   len(rrec.trace),
			ReplayDigest: fmt.Sprintf("%016x", rrep.digest),
		}
		out.Workloads = append(out.Workloads, rw)
		rows = append(rows, []string{name,
			fmt.Sprintf("%d", rw.Events),
			fmt.Sprintf("%.1f", rw.MevsStep),
			fmt.Sprintf("%.1f", rw.MevsRun),
			fmt.Sprintf("%.2fx", rw.RunOverStep),
			"identical"})
	}
	out.GeomeanRunOverStep = math.Exp(logSum / float64(len(out.Workloads)))
	r.table([]string{"workload", "events", "Mev/s Step", "Mev/s Run", "Run/Step", "trace+digest"}, rows)
	blob, _ := json.MarshalIndent(out, "", "  ")
	if err := os.WriteFile("BENCH_E22.json", append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write BENCH_E22.json: %v", err)
	}
	r.note("wrote BENCH_E22.json; Run is %.2fx a Step loop (geomean). Both drivers run the", out.GeomeanRunOverStep)
	r.note("same handlers, record bit-identical trace bytes, and replay to the same digest.")
	return nil
}
