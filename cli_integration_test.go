package dejavu

// End-to-end integration tests over the real binaries: record on one
// process, replay on another, debug over TCP, and resume from a
// checkpoint file in a third process — the full multi-process
// architecture of the paper, driven black-box.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dejavu/internal/dbgproto"
	"dejavu/internal/heap"
	"dejavu/internal/trace"
)

// buildTools compiles the commands once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"dejavu", "dvserve"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, b)
		}
	}
	return dir
}

func TestCLIRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	tr := filepath.Join(dir, "bank.dvt")

	rec := exec.Command(filepath.Join(bin, "dejavu"), "record", "-seed", "5", "-o", tr, "workload:bank")
	recOut, err := rec.Output()
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	rep := exec.Command(filepath.Join(bin, "dejavu"), "replay", "-t", tr, "workload:bank")
	repOut, err := rep.Output()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if string(recOut) != string(repOut) {
		t.Fatalf("outputs differ:\n%q\n%q", recOut, repOut)
	}
	if !strings.Contains(string(recOut), "800") {
		t.Fatalf("bank total missing: %q", recOut)
	}

	// traceinfo parses the file.
	info := exec.Command(filepath.Join(bin, "dejavu"), "traceinfo", tr)
	infoOut, err := info.Output()
	if err != nil {
		t.Fatalf("traceinfo: %v", err)
	}
	if !strings.Contains(string(infoOut), "preemptive switches") {
		t.Fatalf("traceinfo output: %q", infoOut)
	}

	// verify passes on the workload.
	ver := exec.Command(filepath.Join(bin, "dejavu"), "verify", "workload:bank")
	verOut, err := ver.Output()
	if err != nil || !strings.Contains(string(verOut), "verification passed") {
		t.Fatalf("verify: %v %q", err, verOut)
	}
}

func TestCLIDebugSessionWithCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	tr := filepath.Join(dir, "bank.dvt")
	ck := filepath.Join(dir, "mid.dvck")

	if _, err := exec.Command(filepath.Join(bin, "dejavu"), "record", "-seed", "5", "-o", tr, "workload:bank").Output(); err != nil {
		t.Fatalf("record: %v", err)
	}

	// Session 1: dvserve, step, save a checkpoint, quit.
	addr1, addr2 := freeAddr(t), freeAddr(t)
	srv1 := exec.Command(filepath.Join(bin, "dvserve"), "-t", tr, "-listen", addr1, "-peek", "", "workload:bank")
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv1.Process.Kill()
	c1 := dialRetry(t, addr1)
	if _, err := c1.Send("step 12000"); err != nil {
		t.Fatal(err)
	}
	body, err := c1.Send("save " + ck)
	if err != nil || !strings.Contains(body, "checkpoint at event 12000") {
		t.Fatalf("save: %q %v", body, err)
	}
	c1.Send("quit")
	c1.Close()
	srv1.Process.Kill()
	srv1.Wait()

	// Session 2: a fresh dvserve resumes from the checkpoint file.
	srv2 := exec.Command(filepath.Join(bin, "dvserve"), "-t", tr, "-listen", addr2, "-peek", "", "-restore", ck, "workload:bank")
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Process.Kill()
	c2 := dialRetry(t, addr2)
	defer c2.Close()
	st, err := c2.Send("status")
	if err != nil || !strings.Contains(st, "events=12000") {
		t.Fatalf("resumed status: %q %v", st, err)
	}
	body, err = c2.Send("continue")
	if err != nil || !strings.Contains(body, "halted") {
		t.Fatalf("continue: %q %v", body, err)
	}
	out, err := c2.Send("output")
	if err != nil {
		t.Fatal(err)
	}
	// Only output produced after the checkpoint... plus the restored
	// buffer: the resumed run must end with the bank total.
	if !strings.Contains(out, "800") {
		t.Fatalf("resumed run output: %q", out)
	}
}

// TestCLIReplayFromEventRefusedCheckpointFallsBack: `dejavu replay
// -from-event` seeded from a checkpoint the VM refuses (rewritten here in
// the older full-image heap format, which still loads) must fall back to
// an earlier checkpoint and finish with the from-zero output.
func TestCLIReplayFromEventRefusedCheckpointFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dejavu := filepath.Join(bin, "dejavu")
	dir := filepath.Join(t.TempDir(), "j")
	if out, err := exec.Command(dejavu, "record", "-seed", "7", "-segment-events", "16", "-o", dir, "workload:events").CombinedOutput(); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	zero, err := exec.Command(dejavu, "replay", "-t", dir, "workload:events").Output()
	if err != nil {
		t.Fatalf("from-zero replay: %v", err)
	}

	dfs, err := trace.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := trace.OpenJournal(dfs)
	if err != nil {
		t.Fatal(err)
	}
	cks := j.Manifest.Checkpoints
	if len(cks) < 2 {
		t.Fatalf("need >= 2 checkpoints, journal has %d", len(cks))
	}
	last := cks[len(cks)-1]
	path := filepath.Join(dir, last.Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := trace.DecodeCheckpoint(raw, j.ProgHash())
	if err != nil {
		t.Fatal(err)
	}
	const vmHeader = 12 // "DVCK" + program hash
	hs, rest, err := heap.DecodeSnapshot(ck.State[vmHeader:])
	if err != nil {
		t.Fatal(err)
	}
	full := make([]byte, 2*hs.Semi)
	copy(full[hs.Base:], hs.Image)
	state := append([]byte(nil), ck.State[:vmHeader]...)
	for _, v := range []int{hs.Semi, hs.Base, hs.Alloc, len(full)} {
		state = binary.AppendUvarint(state, uint64(v))
	}
	ck.State = append(append(state, full...), rest...)
	if err := os.WriteFile(path, trace.EncodeCheckpoint(j.ProgHash(), ck), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(dejavu, "replay", "-t", dir, "-from-event", fmt.Sprint(last.VMEvents), "workload:events")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("seeded replay with a refused checkpoint: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Equal(out, zero) {
		t.Fatalf("fallback replay output %q, from-zero %q", out, zero)
	}
	prev := cks[len(cks)-2]
	if want := fmt.Sprintf("seeded from checkpoint %d at %d events", prev.Index, prev.VMEvents); !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr %q lacks %q", stderr.String(), want)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func dialRetry(t *testing.T, addr string) *dbgproto.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := dbgproto.Dial(addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestExamplesRun smoke-tests every example program end to end.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries")
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil || len(examples) < 6 {
		t.Fatalf("found %d examples: %v", len(examples), err)
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", dir)
			}
		})
	}
}
