// Command expdriver runs the paper-reproduction experiments (E1–E15 from
// DESIGN.md) and prints their tables.
//
// Usage:
//
//	expdriver                 # run everything, plain text
//	expdriver -run E3,E7      # a subset
//	expdriver -format md      # GitHub markdown (for EXPERIMENTS.md)
//	expdriver -list           # list experiment IDs and titles
//	expdriver -run E13 -scale-eips 1000000 -scale-tenants 400
//	                          # the full million-endpoint drill tier
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"declnet/internal/exp"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
	format := flag.String("format", "text", "output format: text or md")
	list := flag.Bool("list", false, "list experiments and exit")
	scaleEIPs := flag.Int("scale-eips", 0, "E13 drill size in endpoints (0 = default 10^5; `make scale` passes 10^6)")
	scaleTenants := flag.Int("scale-tenants", 0, "E13 drill tenant count (0 = default 200)")
	scaleRegions := flag.Int("scale-regions", 0, "E13 drill region count (0 = default 16)")
	flag.Parse()

	if *scaleEIPs > 0 || *scaleTenants > 0 || *scaleRegions > 0 {
		exp.SetScaleTier(*scaleEIPs, *scaleTenants, *scaleRegions)
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *run == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := false
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		switch *format {
		case "md":
			fmt.Println(table.Markdown())
		default:
			fmt.Println(table.Text())
		}
		fmt.Printf("(%s ran in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
