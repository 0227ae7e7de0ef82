// Cross-campus reproducibility: §5's proposal in action. Three simulated
// universities each keep their data private but run the same open-sourced
// learning algorithm locally; the resulting models are compared across
// campuses, "suggesting a viable path for tackling the much-debated
// reproducibility problem in science in the era of AI/ML".
package main

import (
	"fmt"
	"log"
	"time"

	"campuslab/internal/core"
	"campuslab/internal/traffic"
)

func main() {
	log.SetFlags(0)
	specs := []core.CampusSpec{
		{Name: "ucsb", HostsPerDept: 30, FlowsPerSecond: 50, AttackRate: 700,
			StartHour: 14, Duration: 4 * time.Second, Seed: 31},
		{Name: "princeton", HostsPerDept: 45, FlowsPerSecond: 70, AttackRate: 500,
			StartHour: 17, Duration: 4 * time.Second, Seed: 32},
		{Name: "columbia", HostsPerDept: 25, FlowsPerSecond: 40, AttackRate: 900,
			StartHour: 17, Duration: 4 * time.Second, Seed: 33},
	}
	algo := core.DevelopConfig{Target: traffic.LabelDNSAmp, Seed: 34}

	fmt.Println("running the open-sourced dns-amp detector at 3 campuses...")
	res, err := core.RunCrossCampus(specs, algo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s", "train\\test")
	for _, c := range res.Campuses {
		fmt.Printf("%12s", c)
	}
	fmt.Println()
	for i, c := range res.Campuses {
		fmt.Printf("%-12s", c)
		for j := range res.Campuses {
			fmt.Printf("%11.1f%%", 100*res.Accuracy[i][j])
		}
		fmt.Println()
	}
	fmt.Printf("\nself-campus accuracy:  %.1f%%\n", 100*res.DiagonalMean())
	fmt.Printf("transfer accuracy:     %.1f%%\n", 100*res.OffDiagonalMean())
	for i, c := range res.Campuses {
		fmt.Printf("extraction fidelity at %-10s %.1f%%\n", c+":", 100*res.Fidelity[i])
	}
	fmt.Println("\ndata never left any campus; only the algorithm traveled.")
}
