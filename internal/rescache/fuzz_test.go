package rescache

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzStoreWire drives Store.Handler with a fuzzed sequence of GETs and PUTs
// on two keys, with fuzzed bodies and lease headers, against a model of the
// lease protocol. Each byte of script is one request: its low three bits
// pick the verb (three GET weights; PUT with the key's granted lease, with
// none, with a stale token, with the fuzzed lease header, or GET of
// /healthz or /metrics), bit 3 the key, and the high four bits how much of
// body a PUT sends. For every request:
//   - nothing panics;
//   - the reply is one the wire-form comment in store.go documents;
//   - a GET miss carries exactly one of the lease and Retry-After: a lease
//     when no fill is in flight for the key, Retry-After while one is;
//   - a PUT with the granted lease or with none answers 204 and stores the
//     body, which the next GET returns byte for byte;
//   - a PUT with any other lease answers 409 and stores nothing.
//
// Keys are one path segment, as the store's job-id keys are: the empty key
// and the dot segments name no item, and a key with a slash is not one
// segment, so those inputs are skipped. Leases outlive the run, so the
// model never has to guess an expiry. A script runs its first maxOps
// requests: two keys with one lease each reach no state in more that they
// cannot reach in fewer, and a short run keeps the fuzzer's minimization
// of each new input quick.
//
// The seed corpus (testdata/fuzz/FuzzStoreWire) holds the lease protocol's
// paths: a granted fill, a held lease, stale and absent leases, and a key
// refilled without a lease.
func FuzzStoreWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte, key0, key1 string, body []byte, lease string) {
		for _, k := range []string{key0, key1} {
			if k == "" || k == "." || k == ".." || strings.Contains(k, "/") {
				t.Skip("not a one-segment key")
			}
		}
		const maxOps = 32
		if len(script) > maxOps {
			script = script[:maxOps]
		}
		st := NewStore(16, time.Hour)
		h := st.Handler()
		type keyState struct {
			value   []byte
			stored  bool
			granted string // the live fill lease, "" if none
		}
		model := map[string]*keyState{key0: {}, key1: {}}
		var tokens []string // every lease granted so far
		do := func(method, path string, body []byte, lease string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, bytes.NewReader(body))
			if lease != "" {
				req.Header.Set(leaseHeader, lease)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}

		for i, op := range script {
			key := key0
			if op&8 != 0 {
				key = key1
			}
			ks := model[key]
			path := "/store/v1/items/" + url.PathEscape(key)
			switch verb := op & 7; verb {
			case 0, 1, 2:
				rec := do(http.MethodGet, path, nil, "")
				got, retry := rec.Header().Get(leaseHeader), rec.Header().Get("Retry-After")
				switch {
				case ks.stored:
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ks.value) || got != "" || retry != "" {
						t.Fatalf("op %d: GET of stored %q: HTTP %d body %q lease %q Retry-After %q, want 200 and %q",
							i, key, rec.Code, rec.Body, got, retry, ks.value)
					}
				case rec.Code != http.StatusNotFound:
					t.Fatalf("op %d: GET of missing %q: HTTP %d, want 404", i, key, rec.Code)
				case (got == "") == (retry == ""):
					t.Fatalf("op %d: GET miss of %q carries lease %q and Retry-After %q, want exactly one", i, key, got, retry)
				case ks.granted != "" && got != "":
					t.Fatalf("op %d: GET miss of %q granted lease %q while %q is live", i, key, got, ks.granted)
				case ks.granted == "" && retry != "":
					t.Fatalf("op %d: GET miss of %q answered Retry-After with no fill in flight", i, key)
				case got != "":
					for _, tok := range tokens {
						if tok == got {
							t.Fatalf("op %d: lease %q granted twice", i, got)
						}
					}
					ks.granted = got
					tokens = append(tokens, got)
				}
			case 3, 4, 5, 6:
				sent := body[:int(op>>4)*len(body)/15]
				var tok string // verb 4 sends no lease
				switch verb {
				case 3:
					tok = ks.granted
				case 5: // the newest lease, granted to either key
					tok = "stale"
					if n := len(tokens); n > 0 {
						tok = tokens[n-1]
					}
				case 6:
					tok = lease
				}
				before, had := st.cache.Get(key)
				rec := do(http.MethodPut, path, sent, tok)
				after, has := st.cache.Get(key)
				if tok == "" || tok == ks.granted {
					if rec.Code != http.StatusNoContent || !has || !bytes.Equal(after, sent) {
						t.Fatalf("op %d: PUT %q with lease %q (granted %q): HTTP %d, stored %v, want 204 and the body stored",
							i, key, tok, ks.granted, rec.Code, has)
					}
					ks.value, ks.stored, ks.granted = append([]byte(nil), sent...), true, ""
					continue
				}
				if rec.Code != http.StatusConflict || has != had || !bytes.Equal(after, before) {
					t.Fatalf("op %d: PUT %q with stale lease %q (granted %q): HTTP %d, stored changed %v, want 409 and nothing stored",
						i, key, tok, ks.granted, rec.Code, has != had || !bytes.Equal(after, before))
				}
			case 7:
				path := "/healthz"
				if op&8 != 0 {
					path = "/metrics"
				}
				rec := do(http.MethodGet, path, nil, "")
				if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
					t.Fatalf("op %d: GET %s: HTTP %d %q, want 200 and JSON", i, path, rec.Code, rec.Body)
				}
			}
		}
	})
}
