package main

import "testing"

// TestDigestStable pins the digest of fixed inputs: -compare matches digests
// recorded by different builds, so the encoding must never drift silently.
func TestDigestStable(t *testing.T) {
	d := newDigest()
	d.sim("millipede", "count", 7, 1000, 1428571, 12345, []uint32{1, 2, 3})
	d.body(`{"experiment":"ablation"}`, []byte("{}\n"))
	const want = "fc62cce2341e203210573d031f072fb6d5327e1eaf27caf74bae7d098350a434"
	if got := d.hex(); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := func() *digest {
		d := newDigest()
		d.sim("millipede", "count", 7, 1000, 1428571, 12345, []uint32{1, 2, 3})
		return d
	}
	ref := base().hex()
	if again := base().hex(); again != ref {
		t.Fatalf("same inputs, different digests: %s vs %s", ref, again)
	}
	for name, add := range map[string]func(*digest){
		"arch":   func(d *digest) { d.sim("ssmc", "count", 7, 1000, 1428571, 12345, []uint32{1, 2, 3}) },
		"bench":  func(d *digest) { d.sim("millipede", "sample", 7, 1000, 1428571, 12345, []uint32{1, 2, 3}) },
		"seed":   func(d *digest) { d.sim("millipede", "count", 8, 1000, 1428571, 12345, []uint32{1, 2, 3}) },
		"cycles": func(d *digest) { d.sim("millipede", "count", 7, 1001, 1428571, 12345, []uint32{1, 2, 3}) },
		"time":   func(d *digest) { d.sim("millipede", "count", 7, 1000, 1428572, 12345, []uint32{1, 2, 3}) },
		"insts":  func(d *digest) { d.sim("millipede", "count", 7, 1000, 1428571, 12346, []uint32{1, 2, 3}) },
		"output": func(d *digest) { d.sim("millipede", "count", 7, 1000, 1428571, 12345, []uint32{1, 2, 4}) },
		"split":  func(d *digest) { d.sim("millipedec", "ount", 7, 1000, 1428571, 12345, []uint32{1, 2, 3}) },
	} {
		d := newDigest()
		add(d)
		if d.hex() == ref {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}
