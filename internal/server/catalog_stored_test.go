package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/arch"
)

// maxCatalogGetAllocs bounds a repeated catalog GET through a recorder.
// Writing the stored body leaves the recorder's and the mux's 9
// allocations; encoding either body again makes more than a hundred.
const maxCatalogGetAllocs = 20

// TestCatalogServedFromStore: both catalog routes answer a fresh encoding
// of the registry, byte for byte, on every GET, and a repeated GET does not
// re-encode it.
func TestCatalogServedFromStore(t *testing.T) {
	s := New(arch.Default(), Options{Workers: 1})
	t.Cleanup(func() { s.Drain(context.Background()) })
	for path, fresh := range map[string]func() any{
		"/v1/experiments": func() any { return experimentList() },
		"/v1/workloads":   func() any { return workloadList() },
	} {
		want, err := encodeJSON(fresh())
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		get := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			return rec
		}
		for i := 0; i < 2; i++ {
			rec := get()
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("GET %s: HTTP %d, Content-Type %q", path, rec.Code, rec.Header().Get("Content-Type"))
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("GET %s #%d: %d bytes differ from a fresh %d-byte encoding", path, i+1, rec.Body.Len(), len(want))
			}
		}
		if n := testing.AllocsPerRun(50, func() { get() }); n > maxCatalogGetAllocs {
			t.Errorf("GET %s makes %.0f allocations, want at most %d", path, n, maxCatalogGetAllocs)
		}
	}
}
