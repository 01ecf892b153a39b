package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavu/internal/bytecode"
	"dejavu/internal/core"
	"dejavu/internal/vm"
)

const tinySrc = `
program tiny
class Main {
  method main 0 0 {
    iconst 9
    print
    halt
  }
}
entry Main.main
`

func TestLoadProgramWorkload(t *testing.T) {
	p, err := LoadProgram("workload:bank")
	if err != nil || p.Name != "bank" {
		t.Fatalf("%v %v", p, err)
	}
	if _, err := LoadProgram("workload:nope"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("expected unknown workload error, got %v", err)
	}
}

func TestLoadProgramAssemblyAndImage(t *testing.T) {
	dir := t.TempDir()
	asmPath := filepath.Join(dir, "t.dvs")
	if err := os.WriteFile(asmPath, []byte(tinySrc), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadProgram(asmPath)
	if err != nil || p.Name != "tiny" {
		t.Fatalf("%v %v", p, err)
	}
	imgPath := filepath.Join(dir, "t.dva")
	if err := os.WriteFile(imgPath, bytecode.EncodeImage(p), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := LoadProgram(imgPath)
	if err != nil || q.Name != "tiny" {
		t.Fatalf("%v %v", q, err)
	}
	// Extension-less files are sniffed: image first, then assembly.
	anyPath := filepath.Join(dir, "t.bin")
	os.WriteFile(anyPath, bytecode.EncodeImage(p), 0o644)
	if _, err := LoadProgram(anyPath); err != nil {
		t.Fatal(err)
	}
	txtPath := filepath.Join(dir, "t.txt")
	os.WriteFile(txtPath, []byte(tinySrc), 0o644)
	if _, err := LoadProgram(txtPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProgram(filepath.Join(dir, "missing.dvs")); err == nil {
		t.Fatal("expected read error")
	}
}

func TestBuildEngineModes(t *testing.T) {
	p, err := vm.NewImage(bytecode.MustAssemble(tinySrc))
	if err != nil {
		t.Fatal(err)
	}
	// Seeded record engine.
	eng, stop, err := BuildEngine(p, EngineFlags{Mode: core.ModeRecord, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	m, err := vm.Load(p, vm.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	trace := eng.End()
	if len(trace) == 0 {
		t.Fatal("no trace produced")
	}
	// Replay engine from the recorded trace.
	reng, stop2, err := BuildEngine(p, EngineFlags{Mode: core.ModeReplay, TraceIn: trace})
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	m2, err := vm.Load(p, vm.Config{Engine: reng})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if string(m2.Output()) != "9\n" {
		t.Fatalf("replay output %q", m2.Output())
	}
	// Host-timer engine (Seed < 0) starts and stops cleanly.
	heng, stop3, err := BuildEngine(p, EngineFlags{Mode: core.ModeOff, Seed: -1})
	if err != nil {
		t.Fatal(err)
	}
	if heng.Mode() != core.ModeOff {
		t.Fatal("wrong mode")
	}
	stop3()
}
