// Out-of-core GEMM as a library call: the adoption-path example. Arrays
// live as .dra files in a temporary directory; ooc.Contract infers their
// shapes, synthesizes optimized out-of-core code for a 16 MB memory
// budget, executes it against the real files, and the result is verified
// by re-reading the output. No compiler plumbing appears in user code.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/disk"
	"repro/internal/machine"
	"repro/internal/ooc"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "oocgemm")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := machine.OSCItanium2()
	cfg.MemoryLimit = 16 * machine.MB

	fs, err := disk.NewFileStore(dir, cfg.Disk)
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	// Stage two matrices on disk (64 MB of data against a 16 MB budget).
	m, k, n := int64(2000), int64(1600), int64(1800)
	rng := rand.New(rand.NewSource(1))
	stage(fs, "A", m, k, rng)
	stage(fs, "B", k, n, rng)
	fmt.Printf("staged A(%dx%d) and B(%dx%d) under %s\n", m, k, k, n, dir)

	rec := trace.NewWithDisk(fs, cfg.Disk)
	res, err := ooc.MatMul(rec, "C", "A", "B", ooc.Options{
		Machine: cfg,
		Seed:    1,
		Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsynthesized out-of-core GEMM:")
	fmt.Print(res.Synthesis.Plan.String())
	fmt.Printf("\npredicted %.2f s, measured (modelled) %.2f s\n",
		res.Synthesis.Predicted(), res.Stats.Time())
	fmt.Println("\nper-array I/O:")
	fmt.Print(trace.FormatSummary(trace.Summarize(rec.Ops())))

	// Spot-check one element against a directly computed dot product.
	c, err := fs.Open("C")
	if err != nil {
		log.Fatal(err)
	}
	got := make([]float64, 1)
	if err := c.ReadSection([]int64{7, 11}, []int64{1, 1}, got); err != nil {
		log.Fatal(err)
	}
	a, _ := fs.Open("A")
	b, _ := fs.Open("B")
	arow := make([]float64, k)
	bcol := make([]float64, k)
	if err := a.ReadSection([]int64{7, 0}, []int64{1, k}, arow); err != nil {
		log.Fatal(err)
	}
	if err := b.ReadSection([]int64{0, 11}, []int64{k, 1}, bcol); err != nil {
		log.Fatal(err)
	}
	want := 0.0
	for i := range arow {
		want += arow[i] * bcol[i]
	}
	fmt.Printf("\nspot check C[7,11]: out-of-core %.6f vs direct %.6f\n", got[0], want)
	if diff := got[0] - want; diff > 1e-9 || diff < -1e-9 {
		log.Fatal("verification FAILED")
	}
	fmt.Println("verification OK")
}

func stage(fs *disk.FileStore, name string, rows, cols int64, rng *rand.Rand) {
	a, err := fs.Create(name, []int64{rows, cols})
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]float64, cols)
	for r := int64(0); r < rows; r++ {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		if err := a.WriteSection([]int64{r, 0}, []int64{1, cols}, buf); err != nil {
			log.Fatal(err)
		}
	}
}
