package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/arch"
	"repro/internal/harness"
)

// FuzzCanonicalID drives the job decoder with arbitrary bodies. For every
// body, CanonicalID and the worker's submit path must not panic, and:
//   - an invalid body is answered 400 on every POST and never memoized;
//   - a valid body gets the id CanonicalID computes, on its first POST (full
//     canonicalization) and on its second (answered from the memo);
//   - the canonical Request's JSON, submitted as a body, canonicalizes to the
//     same id (canonicalization is idempotent).
//
// The seed corpus (testdata/fuzz/FuzzCanonicalID) holds the bodies the
// server, router and catalog tests post.
func FuzzCanonicalID(f *testing.F) {
	base := arch.Default()
	s := New(base, Options{Workers: 1, Runner: func(ctx context.Context, req Request) (harness.ExperimentResult, error) {
		return harness.ExperimentResult{Text: "fuzz"}, nil
	}})
	f.Cleanup(func() { s.Drain(context.Background()) })

	f.Fuzz(func(t *testing.T, body []byte) {
		id, err := CanonicalID(base, body)
		for post := 1; post <= 2; post++ {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			switch {
			case len(body) > MaxBodyBytes:
				if rec.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("POST %d of a %d-byte body: HTTP %d, want 413", post, len(body), rec.Code)
				}
			case err != nil:
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("POST %d of a body CanonicalID rejects (%v): HTTP %d, want 400", post, err, rec.Code)
				}
			case rec.Code == http.StatusTooManyRequests:
				// Queue full: the body canonicalized but no job was taken.
			case rec.Code == http.StatusOK || rec.Code == http.StatusAccepted:
				var st statusBody
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatalf("POST %d: bad status body %q: %v", post, rec.Body, err)
				}
				if st.ID != id {
					t.Fatalf("POST %d answered id %s, CanonicalID says %s", post, st.ID, id)
				}
			default:
				t.Fatalf("POST %d of a valid body: HTTP %d %s", post, rec.Code, rec.Body)
			}
		}
		if err != nil || len(body) > MaxBodyBytes {
			if _, ok := s.ids.Lookup(body); ok {
				t.Fatal("an invalid body was memoized")
			}
			return
		}
		if got, ok := s.ids.Lookup(body); !ok || got != id {
			t.Fatalf("memo holds %q (present %v) for the body, CanonicalID says %s", got, ok, id)
		}

		jr, err := decodeJob(body)
		if err != nil {
			t.Fatalf("decodeJob rejects a body CanonicalID accepts: %v", err)
		}
		req, _, err := s.normalize(jr)
		if err != nil {
			t.Fatalf("normalize rejects a body CanonicalID accepts: %v", err)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, err := CanonicalID(base, canon)
		if err != nil {
			t.Fatalf("canonical request %s does not canonicalize: %v", canon, err)
		}
		if again != id {
			t.Fatalf("canonical request %s canonicalizes to %s, the body to %s", canon, again, id)
		}
	})
}
