// Tests for the warm-hit path: the body -> job id memo and the done
// record's stored status body.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/server"
)

// quickRun is a simulation backend that finishes at once.
func quickRun(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
	return harness.ExperimentResult{Text: fmt.Sprintf("fake result seed=%d", req.Seed)}, nil
}

func postRaw(t *testing.T, ts *httptest.Server, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// waitDone polls the metrics until n jobs are done, without fetching any
// job status (which would render it).
func waitDone(t *testing.T, ts *httptest.Server, n float64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for metricValue(t, ts, "server.jobs_done") < n {
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %g jobs done after a minute", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// maxWarmPostAllocs bounds the allocations of a repeated POST of a done job,
// request and recorder included. Decoding, canonicalizing and encoding the
// status on every hit took 42.
const maxWarmPostAllocs = 30

// TestWarmPostAllocs is the warm-hit allocation gate: a repeated POST of a
// done job is answered from the memo and the record's stored status body.
func TestWarmPostAllocs(t *testing.T) {
	s := server.New(arch.Default(), server.Options{Runner: quickRun})
	body := []byte(`{"experiment":"ablation","scale":0.04}`)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		return rec
	}
	deadline := time.Now().Add(time.Minute)
	for !strings.Contains(post().Body.String(), `"status": "done"`) {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if got := testing.AllocsPerRun(200, func() { post() }); got > maxWarmPostAllocs {
		t.Errorf("warm POST makes %g allocations, want at most %d", got, maxWarmPostAllocs)
	}
}

// TestRepeatedPostStatusByteIdentical: once a job is done, every POST hit —
// from the memo or through a full canonicalization of an equivalent body —
// and every GET of its status return the same bytes, equal to a fresh
// encoding of the record.
func TestRepeatedPostStatusByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, server.Options{Runner: quickRun})
	const body = `{"experiment":"fig3","seed":3}`
	if code, data := postRaw(t, ts, body); code != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d %s", code, data)
	}
	waitDone(t, ts, 1)
	_, first := postRaw(t, ts, body)
	var sb statusBody
	if err := json.Unmarshal(first, &sb); err != nil || sb.Status != "done" {
		t.Fatalf("POST after done: %s (%v)", first, err)
	}
	for name, got := range map[string][]byte{
		"repeat POST":        second(postRaw(t, ts, body)),
		"equivalent body":    second(postRaw(t, ts, `{"seed":3,"experiment":"fig3","scale":1}`)),
		"GET status":         second(doJSON(t, "GET", ts.URL+"/v1/jobs/"+sb.ID, nil)),
		"fresh listing item": listedStatus(t, ts),
	} {
		if !bytes.Equal(got, first) {
			t.Errorf("%s:\n%s\nfirst POST hit:\n%s", name, got, first)
		}
	}
}

func second(_ int, b []byte) []byte { return b }

// listedStatus re-encodes the only record of GET /v1/jobs, which encodes
// every record afresh, the way a status body is encoded.
func listedStatus(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	_, data := doJSON(t, "GET", ts.URL+"/v1/jobs", nil)
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil || len(raws) != 1 {
		t.Fatalf("listing %s (%v), want one record", data, err)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, raws[0], "", "  "); err != nil {
		t.Fatal(err)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// TestEquivalentBodiesShareOneRecord: bodies that differ in key order,
// spelled-out defaults, whitespace or the operational timeout canonicalize
// to one id and one record, and a second round answered from the memo
// agrees with the first.
func TestEquivalentBodiesShareOneRecord(t *testing.T) {
	s, ts := newTestServer(t, server.Options{Runner: quickRun})
	bodies := []string{
		`{"experiment":"fig3","seed":5}`,
		`{"seed":5,"experiment":"fig3"}`,
		`{"experiment":"fig3","seed":5,"processors":1,"scale":1}`,
		`{ "experiment": "fig3", "seed": 5, "timeout_ms": 60000 }`,
	}
	want, err := server.CanonicalID(arch.Default(), []byte(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		for _, b := range bodies {
			code, data := postRaw(t, ts, b)
			var sb statusBody
			json.Unmarshal(data, &sb)
			if (code != http.StatusOK && code != http.StatusAccepted) || sb.ID != want {
				t.Fatalf("round %d, %s: HTTP %d id %q, want id %s", round, b, code, sb.ID, want)
			}
		}
		waitDone(t, ts, 1)
	}
	if _, data := doJSON(t, "GET", ts.URL+"/v1/jobs", nil); bytes.Count(data, []byte(`"id"`)) != 1 {
		t.Errorf("listing holds more than one record:\n%s", data)
	}
	if v := metricValue(t, ts, "server.sims_run"); v != 1 {
		t.Errorf("server.sims_run = %g, want 1", v)
	}
	if n := s.MemoLen(); n != len(bodies) {
		t.Errorf("memo holds %d bodies, want %d", n, len(bodies))
	}
}

// TestInvalidBodyNeverMemoized: a body that does not canonicalize is
// answered 400 every time and never enters the memo.
func TestInvalidBodyNeverMemoized(t *testing.T) {
	s, ts := newTestServer(t, server.Options{Runner: quickRun})
	for _, b := range []string{
		`{"experiment":"no-such"}`,
		`{"experiment":"fig3","bogus":true}`,
		`{"experiment":"fig3","params":{"Corelets":-4}}`,
		`not json`,
		``,
	} {
		for i := 0; i < 3; i++ {
			if code, data := postRaw(t, ts, b); code != http.StatusBadRequest {
				t.Errorf("POST %d of %q: HTTP %d %s, want 400", i, b, code, data)
			}
		}
	}
	if n := s.MemoLen(); n != 0 {
		t.Errorf("memo holds %d invalid bodies", n)
	}
}

// TestFailedJobResubmitReruns: a remembered body whose job failed takes the
// full path again and re-runs the job.
func TestFailedJobResubmitReruns(t *testing.T) {
	var calls atomic.Int64
	flaky := func(ctx context.Context, req server.Request) (harness.ExperimentResult, error) {
		if calls.Add(1) == 1 {
			return harness.ExperimentResult{}, errors.New("transient failure")
		}
		return quickRun(ctx, req)
	}
	_, ts := newTestServer(t, server.Options{Workers: 1, Runner: flaky})
	const body = `{"experiment":"fig3"}`
	code, data := postRaw(t, ts, body)
	var first statusBody
	json.Unmarshal(data, &first)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: HTTP %d %s", code, data)
	}
	if st := waitStatus(t, ts, first.ID); st.Status != "failed" {
		t.Fatalf("first run: %+v, want failed", st)
	}
	code, data = postRaw(t, ts, body)
	var again statusBody
	json.Unmarshal(data, &again)
	if code != http.StatusAccepted || again.ID != first.ID || again.Status != "queued" {
		t.Fatalf("resubmit: HTTP %d %s, want the job queued again", code, data)
	}
	if st := waitStatus(t, ts, first.ID); st.Status != "done" {
		t.Fatalf("re-run: %+v, want done", st)
	}
	if v := metricValue(t, ts, "server.sims_run"); v != 2 || calls.Load() != 2 {
		t.Errorf("server.sims_run = %g, runner calls %d; want 2 and 2", v, calls.Load())
	}
}

// TestMemoStaysAtBound: more distinct bodies than the bound leave the
// worker's memo at its bound.
func TestMemoStaysAtBound(t *testing.T) {
	s := server.New(arch.Default(), server.Options{Runner: quickRun})
	for i := 0; i < server.MemoEntries+50; i++ {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"experiment":"fig3","seed":%d}`, i+1)
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST %s: HTTP %d %s", body, rec.Code, rec.Body)
		}
	}
	if n := s.MemoLen(); n != server.MemoEntries {
		t.Errorf("memo holds %d bodies, want its bound %d", n, server.MemoEntries)
	}
}

// TestIDMemoBound: an IDMemo never holds more than MemoEntries bodies, the
// newest body is always remembered, and re-remembering a body evicts
// nothing.
func TestIDMemoBound(t *testing.T) {
	var m server.IDMemo
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"experiment":"fig3","seed":%d}`, i)) }
	for i := 0; i < server.MemoEntries+100; i++ {
		m.Remember(body(i), fmt.Sprint(i))
		if id, ok := m.Lookup(body(i)); !ok || id != fmt.Sprint(i) {
			t.Fatalf("body %d: Lookup = %q, %v right after Remember", i, id, ok)
		}
		if n := m.Len(); n > server.MemoEntries {
			t.Fatalf("memo holds %d bodies, bound %d", n, server.MemoEntries)
		}
	}
	last := server.MemoEntries + 99
	m.Remember(body(last), fmt.Sprint(last))
	if n := m.Len(); n != server.MemoEntries {
		t.Errorf("memo holds %d bodies after a repeat, want %d", n, server.MemoEntries)
	}
	if _, ok := m.Lookup([]byte(`{"experiment":"fig3"}`)); ok {
		t.Error("Lookup found a body never remembered")
	}
}

// TestIDMemoKeepsNoBodies: an entry is the body's SHA-256 and the id, so
// remembering large bodies does not retain them.
func TestIDMemoKeepsNoBodies(t *testing.T) {
	var m server.IDMemo
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const bodies, size = 64, 256 << 10 // 16 MiB if the bodies were kept
	for i := 0; i < bodies; i++ {
		m.Remember(bytes.Repeat([]byte{byte(i)}, size), strings.Repeat("0", 64))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Errorf("remembering %d bodies of %d KiB grew the live heap by %d KiB", bodies, size>>10, grown>>10)
	}
	if m.Len() != bodies {
		t.Errorf("memo holds %d bodies, want %d", m.Len(), bodies)
	}
}

// TestOversizeBody413: a worker bounds its POST body like the router does,
// even when the body starts with a valid job.
func TestOversizeBody413(t *testing.T) {
	s := server.New(arch.Default(), server.Options{Runner: quickRun})
	body := `{"experiment":"fig3"}` + strings.Repeat(" ", 2<<20)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: HTTP %d %s, want 413", rec.Code, rec.Body)
	}
	if n := s.MemoLen(); n != 0 {
		t.Errorf("memo holds %d bodies after an oversize POST", n)
	}
}
