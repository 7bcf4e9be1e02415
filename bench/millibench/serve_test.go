package main

import (
	"slices"
	"testing"
)

func TestServeSequenceDeterministic(t *testing.T) {
	a, b := serveSequence(42, 200, 4000), serveSequence(42, 200, 4000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different request sequences")
	}
	if slices.Equal(a, serveSequence(43, 200, 4000)) {
		t.Error("different seeds, same request sequence")
	}
}

// TestServeSequenceShape checks the cold/warm structure: keys are introduced
// in order starting with the first request, every key appears, and a
// request only repeats a key introduced before it.
func TestServeSequenceShape(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seq := serveSequence(seed, 200, 4000)
		if len(seq) != 4000 || seq[0] != 0 {
			t.Fatalf("seed %d: %d requests, first key %d", seed, len(seq), seq[0])
		}
		introduced := 0
		for i, k := range seq {
			switch {
			case k == introduced:
				introduced++
			case k > introduced:
				t.Fatalf("seed %d: request %d uses key %d before key %d", seed, i, k, introduced)
			}
		}
		if introduced != 200 {
			t.Errorf("seed %d: %d distinct keys, want 200", seed, introduced)
		}
		// Cold requests are spread through the pass, not bunched at the start.
		if last := slices.Index(seq, 199); last < 2000 {
			t.Errorf("seed %d: last key introduced at request %d", seed, last)
		}
	}
}

func TestJobSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for pass := uint64(1); pass <= 5; pass++ {
		for k := 0; k < 400; k++ {
			s := jobSeed(pass, k)
			if s == 0 || seen[s] {
				t.Fatalf("pass %d key %d: seed %d zero or repeated", pass, k, s)
			}
			seen[s] = true
		}
	}
}
