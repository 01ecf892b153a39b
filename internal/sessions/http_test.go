// Control-plane tests over httptest: the full lifecycle a fleet client
// sees — create, attach, travel, verify, kill — plus the backpressure
// contract: a pool at capacity answers 429 with a machine-readable reason,
// and the slot freed by a kill admits the next create.
package sessions

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dejavu/internal/debugger"
)

func startControlPlane(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := newTestManager(t, cfg)
	mux := http.NewServeMux()
	m.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return m, ts
}

// call issues a JSON request and decodes the response into out (skipped
// when out is nil). Returns the status code.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPLifecycle(t *testing.T) {
	m, ts := startControlPlane(t, Config{MaxSessions: 2})

	// Create.
	var created Info
	code := call(t, "POST", ts.URL+"/v1/sessions",
		CreateRequest{Program: "workload:fig1ab", Seed: 9, RotateEvents: 1500}, &created)
	if code != http.StatusCreated || created.State != "active" || created.Digest == "" {
		t.Fatalf("create: %d %+v", code, created)
	}

	// List and info agree.
	var list []Info
	if code := call(t, "GET", ts.URL+"/v1/sessions", nil, &list); code != 200 || len(list) != 1 {
		t.Fatalf("list: %d %+v", code, list)
	}
	var info Info
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, &info); code != 200 || info.ID != created.ID {
		t.Fatalf("info: %d %+v", code, info)
	}

	// Attach (the dbgproto-side resolver) and run a command mid-lifecycle:
	// control plane and command plane share one session safely.
	h, err := m.AttachSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Exec(func(d *debugger.Debugger) error {
		if d.Status() == "" {
			return fmt.Errorf("empty status")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h.Detach()

	// Travel via the control plane.
	var traveled Info
	code = call(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/travel",
		map[string]uint64{"event": created.Events / 2}, &traveled)
	if code != 200 || traveled.Position < created.Events/2 || traveled.Travels != 1 {
		t.Fatalf("travel: %d %+v", code, traveled)
	}

	// Verify: replay-from-zero digest matches the record digest.
	var ver struct {
		ReplayDigest string `json:"replay_digest"`
		RecordDigest string `json:"record_digest"`
		Match        *bool  `json:"match"`
	}
	code = call(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/verify", nil, &ver)
	if code != 200 || ver.Match == nil || !*ver.Match {
		t.Fatalf("verify: %d %+v", code, ver)
	}

	// Fill the pool, then watch the capacity refusal shape.
	var second Info
	if code := call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: "workload:fig1ab"}, &second); code != http.StatusCreated {
		t.Fatalf("second create: %d", code)
	}
	var refusal errorBody
	code = call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: "workload:fig1ab"}, &refusal)
	if code != http.StatusTooManyRequests || refusal.Reason != ReasonCapacity {
		t.Fatalf("over-cap create: %d %+v, want 429/capacity", code, refusal)
	}

	// Kill frees the slot; the create that was just refused now succeeds.
	if code := call(t, "DELETE", ts.URL+"/v1/sessions/"+created.ID+"?purge=1", nil, nil); code != 200 {
		t.Fatalf("kill: %d", code)
	}
	if code := call(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("info after kill: %d, want 404", code)
	}
	var third Info
	if code := call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: "workload:fig1ab"}, &third); code != http.StatusCreated {
		t.Fatalf("create after kill: %d", code)
	}
}

func TestHTTPRefusalStatuses(t *testing.T) {
	_, ts := startControlPlane(t, Config{})
	// Unknown session: 404 with reason.
	var refusal errorBody
	if code := call(t, "GET", ts.URL+"/v1/sessions/s999", nil, &refusal); code != 404 || refusal.Reason != ReasonNotFound {
		t.Fatalf("unknown session: %d %+v", code, refusal)
	}
	// Bad body: 400.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader([]byte("{")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	// Unknown program: 400 (not a refusal, a plain error).
	if code := call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: "workload:nope"}, nil); code != 400 {
		t.Fatalf("unknown program: %d", code)
	}
}

func TestHTTPDrainingRefusal(t *testing.T) {
	m, ts := startControlPlane(t, Config{})
	m.Drain("")
	var refusal errorBody
	code := call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: "workload:fig1ab"}, &refusal)
	if code != http.StatusServiceUnavailable || refusal.Reason != ReasonDraining {
		t.Fatalf("draining create: %d %+v, want 503/draining", code, refusal)
	}
}

// unverifiableSrc fails verification at Main.main pc=0: add on an empty
// operand stack.
const unverifiableSrc = `program bad
class Main {
  method main 0 0 {
    add
    halt
  }
}
entry Main.main
`

// TestCreateRefusesUnverifiableProgram: a create whose program fails
// verification answers 400 with the verifier's method and pc, records
// nothing and leaves no session directory.
func TestCreateRefusesUnverifiableProgram(t *testing.T) {
	m, ts := startControlPlane(t, Config{MaxSessions: 1})
	src := filepath.Join(t.TempDir(), "bad.dvs")
	if err := os.WriteFile(src, []byte(unverifiableSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var body errorBody
	code := call(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Program: src, Seed: 1}, &body)
	if code != http.StatusBadRequest || !strings.Contains(body.Error, "verify: Main.main pc=0:") {
		t.Fatalf("create: %d %q, want 400 naming Main.main pc=0", code, body.Error)
	}
	if n, _ := os.ReadDir(filepath.Join(m.cfg.DataRoot, "sessions")); len(n) != 0 {
		t.Fatalf("refused create left %d session dirs", len(n))
	}
	if len(m.List()) != 0 {
		t.Fatalf("refused create left sessions %+v", m.List())
	}
}
