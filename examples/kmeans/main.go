// kmeans runs one k-means iteration (Table II's unsupervised clustering) on
// every PNM architecture, verifies that they all produce bit-identical
// partial states, and computes the new centroids from the reduced output —
// the "full application" result the paper emphasizes BMLAs produce.
package main

import (
	"fmt"
	"log"
	"math"

	millipede "repro"
	"repro/internal/workloads"
)

// perturbedStart returns the true generator centroids shifted by a constant
// offset, so the iterations have real work to do.
func perturbedStart() [][]float32 {
	cents := workloads.KMeansCentroids()
	for c := range cents {
		for d := range cents[c] {
			cents[c][d] += float32(1.7 + 0.4*float32(c%3))
		}
	}
	return cents
}

func main() {
	log.SetFlags(0)
	cfg := millipede.DefaultConfig()
	const bench, records = "kmeans", 256
	const k, dims = 8, 8 // internal/kernels geometry

	fmt.Printf("k-means (k=%d, %d dims) on every PNM architecture:\n\n", k, dims)
	var ref []uint32
	for _, arch := range millipede.Architectures() {
		res, out, err := millipede.RunReduced(arch, bench, cfg, records)
		if err != nil {
			log.Fatal(err)
		}
		same := "n/a (first)"
		if ref != nil {
			same = "identical"
			for i := range ref {
				if out[i] != ref[i] {
					same = "DIFFERENT"
				}
			}
		} else {
			ref = out
		}
		fmt.Printf("%-26s time %8.1f us   energy %7.2f uJ   output vs first: %s\n",
			arch, float64(res.Time)/1e6, res.Energy.TotalPJ()/1e6, same)
	}

	// Full application: iterate k-means from perturbed centroids over the
	// same resident dataset until the update shift collapses (the chained
	// MapReductions of Section IV-E).
	cents := perturbedStart()
	fmt.Println("\niterative k-means on Millipede (mean centroid shift per iteration):")
	for it := 1; it <= 4; it++ {
		next, _, err := millipede.KMeansIteration(cfg, cents, records)
		if err != nil {
			log.Fatal(err)
		}
		shift, err := millipede.CentroidShift(cents, next)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  iteration %d: shift %.4f\n", it, shift)
		cents = next
	}

	// Output layout: counts[k] then sums[k][dims] (float32 bits).
	fmt.Println("\nnew centroids (sum / count) from the reduced Millipede output:")
	for c := 0; c < k; c++ {
		n := ref[c]
		fmt.Printf("  centroid %d (n=%4d): [", c, n)
		for d := 0; d < dims; d++ {
			v := math.Float32frombits(ref[k+c*dims+d])
			if n > 0 {
				v /= float32(n)
			}
			fmt.Printf("%6.2f", v)
			if d < dims-1 {
				fmt.Print(" ")
			}
		}
		fmt.Println("]")
	}
}
