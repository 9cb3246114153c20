// Command regionmap regenerates the paper's Figures 13 and 14: ASCII
// maps of the (n, p) parameter space marking, in each cell, the
// algorithm with the least analytic communication overhead.
//
// Usage:
//
//	regionmap -model oneport              # Figure 13, four (t_s,t_w) panels
//	regionmap -model multiport -ts 150    # one Figure 14 panel
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"hypermm"
	"hypermm/internal/cost"
	"hypermm/internal/simnet"
)

func main() {
	var (
		model   = flag.String("model", "oneport", "machine model: oneport (Fig 13) or multiport (Fig 14)")
		ts      = flag.Float64("ts", -1, "start-up cost t_s; negative means the paper's four panels")
		tw      = flag.Float64("tw", 3, "per-word cost t_w")
		logNMin = flag.Float64("lognmin", 5, "smallest log2 n")
		logNMax = flag.Float64("lognmax", 14, "largest log2 n")
		logPMin = flag.Float64("logpmin", 3, "smallest log2 p")
		logPMax = flag.Float64("logpmax", 20, "largest log2 p")
		nSteps  = flag.Int("nsteps", 64, "columns")
		pSteps  = flag.Int("psteps", 32, "rows")
		pngPath = flag.String("png", "", "also write PNG panels to <prefix>_<panel>.png")
		cell    = flag.Int("cell", 8, "PNG pixels per grid cell")
	)
	flag.Parse()

	pm, err := hypermm.ParsePortModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regionmap:", err)
		os.Exit(2)
	}

	fig := "Figure 13"
	if pm == hypermm.MultiPort {
		fig = "Figure 14"
	}
	panels := []float64{150, 50, 10, 2}
	if *ts >= 0 {
		panels = []float64{*ts}
	}
	spm := simnet.OnePort
	if pm == hypermm.MultiPort {
		spm = simnet.MultiPort
	}
	// Render every panel concurrently (each is an independent grid
	// evaluation), then print in panel order for byte-identical output.
	texts := make([]string, len(panels))
	var wg sync.WaitGroup
	for i, t := range panels {
		wg.Add(1)
		go func(i int, t float64) {
			defer wg.Done()
			texts[i] = hypermm.RegionMap(pm, t, *tw, *logNMin, *logNMax, *nSteps, *logPMin, *logPMax, *pSteps)
		}(i, t)
	}
	wg.Wait()
	for i, t := range panels {
		fmt.Printf("%s(%c): t_s=%g, t_w=%g\n", fig, 'a'+i, t, *tw)
		fmt.Print(texts[i])
		fmt.Println()
		if *pngPath != "" {
			rm := cost.NewRegionMap(spm, t, *tw, cost.DefaultCandidates(spm),
				*logNMin, *logNMax, *nSteps, *logPMin, *logPMax, *pSteps)
			name := fmt.Sprintf("%s_%c.png", *pngPath, 'a'+i)
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "regionmap:", err)
				os.Exit(1)
			}
			if err := rm.WritePNG(f, *cell); err != nil {
				fmt.Fprintln(os.Stderr, "regionmap:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n", name)
		}
	}
}
