package dejavu

// Benchmarks backing the experiment tables in EXPERIMENTS.md (E1–E12 in
// DESIGN.md). Each benchmark corresponds to one table/figure artifact;
// `cmd/dvbench` prints the full formatted tables, while these provide
// statistically steadier per-operation numbers via testing.B.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"net"
	"testing"

	"dejavu/internal/baselines"
	"dejavu/internal/core"
	"dejavu/internal/debugger"
	"dejavu/internal/ptrace"
	"dejavu/internal/remoteref"
	"dejavu/internal/replaycheck"
	"dejavu/internal/vm"
	"dejavu/internal/workloads"
)

var benchProgs = map[string]func() *Program{
	"bank":         func() *Program { return workloads.Bank(4, 8, 500) },
	"prodcons":     func() *Program { return workloads.ProdCons(2, 2, 4, 300) },
	"philosophers": func() *Program { return workloads.Philosophers(5, 60) },
	"server":       func() *Program { return workloads.Server(3, 100) },
	"sieve":        func() *Program { return workloads.Sieve(5000) },
}

var benchNames = []string{"bank", "philosophers", "prodcons", "server", "sieve"}

// BenchmarkE1Fig1RecordReplay measures one full record+replay+verify cycle
// of the Fig. 1 A/B race.
func BenchmarkE1Fig1RecordReplay(b *testing.B) {
	prog := workloads.Fig1AB()
	for i := 0; i < b.N; i++ {
		if _, _, err := replaycheck.CheckReplay(prog, Options{Seed: int64(i), PreemptMin: 2, PreemptMax: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4 measures execution rates in each mode (events/sec via
// events-per-op metrics).
func BenchmarkE4(b *testing.B) {
	for _, name := range benchNames {
		prog := benchProgs[name]
		o := Options{Seed: 21, HeapBytes: 1 << 22}
		b.Run("off/"+name, func(b *testing.B) {
			events := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := replaycheck.RunOff(prog(), o)
				if err != nil || res.RunErr != nil {
					b.Fatalf("%v %v", err, res.RunErr)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
		b.Run("record/"+name, func(b *testing.B) {
			events := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := replaycheck.Record(prog(), o)
				if err != nil || res.RunErr != nil {
					b.Fatalf("%v %v", err, res.RunErr)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
		b.Run("replay/"+name, func(b *testing.B) {
			rec, err := replaycheck.Record(prog(), o)
			if err != nil || rec.RunErr != nil {
				b.Fatalf("%v %v", err, rec.RunErr)
			}
			b.ResetTimer()
			events := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := replaycheck.Replay(prog(), rec.Trace, o)
				if err != nil || res.RunErr != nil {
					b.Fatalf("%v %v", err, res.RunErr)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkE5TraceSize reports trace bytes per scheme (bytes/op metrics;
// time is incidental).
func BenchmarkE5TraceSize(b *testing.B) {
	for _, name := range benchNames {
		prog := benchProgs[name]
		b.Run(name, func(b *testing.B) {
			var dejavuBytes, readBytes, crewBytes, switchBytes int
			var events uint64
			for i := 0; i < b.N; i++ {
				o := Options{Seed: 21, HeapBytes: 1 << 23}
				rl := &baselines.ReadLogger{}
				sl := &baselines.SwitchLogger{}
				crew := baselines.NewCREWLogger()
				o.TweakVM = func(c *vm.Config) {
					c.MemHook = rl
					c.Observer = sl
				}
				rec, err := replaycheck.Record(prog(), o)
				if err != nil || rec.RunErr != nil {
					b.Fatalf("%v %v", err, rec.RunErr)
				}
				o2 := Options{Seed: 21, HeapBytes: 1 << 23}
				o2.TweakVM = func(c *vm.Config) { c.MemHook = crew }
				if _, err := replaycheck.Record(prog(), o2); err != nil {
					b.Fatal(err)
				}
				dejavuBytes = len(rec.Trace)
				readBytes = rl.TraceBytes()
				crewBytes = crew.TraceBytes()
				switchBytes = sl.TraceBytes()
				events = rec.Events
			}
			b.ReportMetric(float64(dejavuBytes), "dejavu-B")
			b.ReportMetric(float64(switchBytes), "rc-switchlog-B")
			b.ReportMetric(float64(crewBytes), "crew-B")
			b.ReportMetric(float64(readBytes), "readlog-B")
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkE6RemoteReflection measures the Fig. 3 line-number query.
func BenchmarkE6RemoteReflection(b *testing.B) {
	m, err := vm.New(workloads.Bank(3, 4, 200), vm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if done, _ := m.Step(); done {
			break
		}
	}
	w := remoteref.NewLocalWorld(m)
	rm, err := w.FindMethod("Main.teller")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rm.LineNumberAt(i % 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7DebuggedReplay measures a replay run driven through the
// debugger with a hot breakpoint, versus the bare replay of E4.
func BenchmarkE7DebuggedReplay(b *testing.B) {
	prog := workloads.Bank(3, 4, 200)
	rec, err := replaycheck.Record(prog, Options{Seed: 7})
	if err != nil || rec.RunErr != nil {
		b.Fatalf("%v %v", err, rec.RunErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewReplayVM(prog, rec.Trace, VMConfig{})
		if err != nil {
			b.Fatal(err)
		}
		d := debugger.New(m)
		d.CheckpointEvery = 0
		if _, err := d.BreakAt("Main.teller", 0); err != nil {
			b.Fatal(err)
		}
		for {
			reason, err := d.Continue()
			if err != nil {
				b.Fatal(err)
			}
			if reason == debugger.StopHalted {
				break
			}
		}
	}
}

// BenchmarkE8ReplayAccuracy measures the full verification cycle across
// the workload suite (one op = all workloads once).
func BenchmarkE8ReplayAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range workloads.Names() {
			o := Options{Seed: int64(i + 1), HostRand: int64(i)}
			if name == "sumlines" {
				o.Input = "1\n2\n3\n\n"
			}
			if _, _, err := replaycheck.CheckReplay(workloads.Registry[name](), o); err != nil {
				b.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// BenchmarkE9Ablations measures the cost of detecting a divergence under
// the liveclock ablation (record + failed replay).
func BenchmarkE9Ablations(b *testing.B) {
	prog := workloads.Hashy(6, 12)
	for i := 0; i < b.N; i++ {
		o := Options{Seed: int64(i%8 + 1), PreemptMin: 2, PreemptMax: 10}
		o.TweakVM = func(c *vm.Config) { c.StackSlots = 48 }
		o.TweakEngine = func(c *core.Config) { c.LiveClockGuard = false }
		_, _, err := replaycheck.CheckReplay(prog, o)
		_ = err // divergence expected for most seeds
	}
}

// BenchmarkE10 measures checkpoint snapshot cost and time travel.
func BenchmarkE10Checkpoint(b *testing.B) {
	prog := workloads.Bank(3, 4, 400)
	rec, err := replaycheck.Record(prog, Options{Seed: 5})
	if err != nil || rec.RunErr != nil {
		b.Fatalf("%v %v", err, rec.RunErr)
	}
	b.Run("snapshot", func(b *testing.B) {
		m, err := NewReplayVM(prog, rec.Trace, VMConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			m.Step()
		}
		b.ResetTimer()
		var bytes int
		for i := 0; i < b.N; i++ {
			s, err := m.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			bytes = s.SnapshotBytes()
		}
		b.ReportMetric(float64(bytes), "snapshot-B")
	})
	b.Run("travel", func(b *testing.B) {
		m, err := NewReplayVM(prog, rec.Trace, VMConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ck := &baselines.Checkpointer{Every: 5000}
		for !m.Halted() {
			if err := ck.Maybe(m); err != nil {
				b.Fatal(err)
			}
			done, err := m.Step()
			if err != nil {
				b.Fatal(err)
			}
			if done {
				break
			}
			if m.Events() > 40000 {
				break
			}
		}
		target := m.Events() / 2
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ck.TravelTo(m, target+uint64(i%1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Peek measures single-word memory peeks locally and over TCP.
func BenchmarkE11Peek(b *testing.B) {
	m, err := vm.New(workloads.Bank(3, 4, 100), vm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		m.Step()
	}
	buf := make([]byte, 8)
	b.Run("local", func(b *testing.B) {
		mem := ptrace.Local{H: m.Heap()}
		for i := 0; i < b.N; i++ {
			if err := mem.Peek(8, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp", func(b *testing.B) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		go ptrace.Serve(l, m.Heap(), m)
		client, err := ptrace.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.Peek(8, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE12GCReplay measures record+replay verification of an
// allocation-heavy run with many copying collections.
func BenchmarkE12GCReplay(b *testing.B) {
	prog := workloads.Hashy(30, 20)
	for i := 0; i < b.N; i++ {
		o := Options{Seed: 4, HeapBytes: 24 * 1024, PreemptMin: 2, PreemptMax: 12}
		rec, _, err := replaycheck.CheckReplay(prog, o)
		if err != nil {
			b.Fatal(err)
		}
		if rec.VM.Heap().Collections == 0 {
			b.Fatal("no collections")
		}
	}
}

// BenchmarkInterpreter measures raw interpreter throughput (the substrate
// speed all overheads are relative to).
func BenchmarkInterpreter(b *testing.B) {
	prog := workloads.Sieve(5000)
	b.ResetTimer()
	events := uint64(0)
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		events += m.Events()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkE3SymmetryCheck measures the E3 logical-clock comparison cycle.
func BenchmarkE3SymmetryCheck(b *testing.B) {
	prog := workloads.ProdCons(2, 2, 4, 100)
	for i := 0; i < b.N; i++ {
		rec, rep, err := replaycheck.CheckReplay(prog, Options{Seed: 13})
		if err != nil {
			b.Fatal(err)
		}
		for j, t := range rec.VM.Scheduler().Threads() {
			if t.YieldCount != rep.VM.Scheduler().Threads()[j].YieldCount {
				b.Fatal("logical clocks differ")
			}
		}
	}
}

// BenchmarkE2Fig1CD measures the clock-branch record+replay cycle.
func BenchmarkE2Fig1CD(b *testing.B) {
	prog := workloads.Fig1CD()
	for i := 0; i < b.N; i++ {
		o := Options{Seed: 5, TimeBase: int64(1000 + i%8), TimeStep: 3}
		if _, _, err := replaycheck.CheckReplay(prog, o); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleRecord() {
	prog := MustAssemble(`
program hello
class Main {
  method main 0 0 {
    iconst 42
    print
    halt
  }
}
entry Main.main
`)
	rec, _ := Record(prog, Options{})
	rep, _ := Replay(prog, rec.Trace, Options{})
	fmt.Printf("recorded %q, replayed %q\n", rec.Output, rep.Output)
	// Output: recorded "42\n", replayed "42\n"
}

// BenchmarkE13ToolVM measures the §3.4 bytecode-extension path: a
// bytecode debugger walking a remote structure through in-process peeks.
func BenchmarkE13ToolVM(b *testing.B) {
	app := MustAssemble(toolBenchSrc)
	tool := MustAssemble(toolBenchSrc)
	tm, _ := tool.MethodByName("Main.tool")
	tool.Entry = tm.ID
	appVM, err := vm.New(app, vm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if err := appVM.Run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toolVM, err := vm.New(tool, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := toolVM.AttachLocalPeer(appVM); err != nil {
			b.Fatal(err)
		}
		if err := toolVM.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

const toolBenchSrc = `
program tb
class Node {
  field v
  field next ref
}
class Main {
  static head ref
  method main 0 2 {
    iconst 60
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
    getf 0
    load 1
    add
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

// BenchmarkCheckpointEncode measures checkpoint-file serialization.
func BenchmarkCheckpointEncode(b *testing.B) {
	prog, _ := Workload("bank")
	rec, err := Record(prog, Options{Seed: 5})
	if err != nil || rec.RunErr != nil {
		b.Fatalf("%v %v", err, rec.RunErr)
	}
	m, err := NewReplayVM(prog, rec.Trace, VMConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		m.Step()
	}
	b.ResetTimer()
	var blob []byte
	for i := 0; i < b.N; i++ {
		var err error
		if blob, err = m.AppendCheckpoint(blob[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "checkpoint-B")
}
