package server

import (
	"crypto/sha256"
	"sync"
)

// MemoEntries bounds an IDMemo. It is well above the distinct job bodies a
// node sees in a typical working set (millibench's serve workload has 360);
// an entry costs about 150 bytes.
const MemoEntries = 1024

// IDMemo is a bounded memo from a POST /v1/jobs body to the job id it
// canonicalized to. Canonicalization (decoding, validation, defaults, and
// the SHA-256 of the canonical request) is a pure function of the body over
// a fixed base configuration, so a body seen before costs one SHA-256 and a
// map lookup instead. Only bodies that canonicalized successfully belong in
// it. An entry is the body's SHA-256 and the id, whatever the body's size;
// once MemoEntries are held, each new body evicts a random one. The zero
// value is an empty memo, safe for concurrent use.
type IDMemo struct {
	mu  sync.Mutex
	ids map[[sha256.Size]byte]string
}

// Lookup returns the id body canonicalized to, if it is remembered.
func (m *IDMemo) Lookup(body []byte) (string, bool) {
	k := sha256.Sum256(body)
	m.mu.Lock()
	defer m.mu.Unlock()
	id, ok := m.ids[k]
	return id, ok
}

// Remember records that body canonicalized to id.
func (m *IDMemo) Remember(body []byte, id string) {
	k := sha256.Sum256(body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ids == nil {
		m.ids = make(map[[sha256.Size]byte]string)
	}
	if _, ok := m.ids[k]; !ok && len(m.ids) >= MemoEntries {
		for old := range m.ids { // map iteration starts at a random entry
			delete(m.ids, old)
			break
		}
	}
	m.ids[k] = id
}

// Len returns the number of remembered bodies.
func (m *IDMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ids)
}
