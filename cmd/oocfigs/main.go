// Command oocfigs regenerates the paper's figures as text: fusion
// (Fig. 1), abstract code and parse tree (Fig. 2), tiled code (Fig. 3),
// candidate placements and synthesized concrete code (Fig. 4), and the
// AO-to-MO abstract code (Fig. 5).
//
// Usage:
//
//	oocfigs           # all figures
//	oocfigs -fig 4    # one figure
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/figures"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oocfigs: ")
	fig := flag.Int("fig", 0, "figure number to print (0 = all)")
	seed := flag.Int64("seed", 1, "DCS solver seed for figure 4")
	obsFlags := cliutil.RegisterObs()
	showVersion := cliutil.VersionFlag()
	flag.Parse()
	showVersion()
	if err := obsFlags.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			log.Print(err)
		}
	}()

	// Figure 4 is the only figure that runs the solver; the shared obs
	// flags (-metrics-out, -trace-out, pprof) observe that synthesis.
	copts := []core.Option{core.WithMetrics(obsFlags.Registry()),
		core.WithTracer(obsFlags.Tracer()), core.WithLog(obsFlags.Log())}

	print := func(n int) {
		switch n {
		case 1:
			fmt.Println(figures.Figure1())
		case 2:
			fmt.Println(figures.Figure2())
		case 3:
			s, err := figures.Figure3()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case 4:
			s, err := figures.Figure4(*seed, copts...)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(s)
		case 5:
			fmt.Println(figures.Figure5())
		default:
			log.Printf("unknown figure %d (have 1-5)", n)
			os.Exit(2)
		}
	}
	if *fig == 0 {
		for n := 1; n <= 5; n++ {
			print(n)
			fmt.Println()
		}
		return
	}
	print(*fig)
}
