// Quickstart: train the experience-driven DRL frequency controller on the
// paper's 3-device testbed scenario and compare its online reasoning against
// the Heuristic and Static baselines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
)

func main() {
	// 1. Build the federated-learning system: 3 heterogeneous devices
	//    (datasets, CPU limits, capacitance per §V-A) on walking-4G traces.
	scenario := experiments.TestbedScenario(42)
	sys, err := scenario.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d devices, ξ=%.0f MB, λ=%g\n", sys.N(), sys.ModelBytes/1e6, sys.Lambda)

	// 2. Offline training (Algorithm 1): the agent observes per-device
	//    bandwidth histories and learns CPU frequencies that minimize
	//    T^k + λ·ΣE (100 episodes keep this example under ~5 s).
	agent, episodes, err := experiments.TrainAgent(sys, experiments.TrainOptions{
		Episodes: 100,
		Hidden:   []int{64, 64},
		Arch:     core.ArchJoint,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	first, last := episodes[0].AvgCost, episodes[len(episodes)-1].AvgCost
	fmt.Printf("training: episode cost %.2f → %.2f over %d episodes\n", first, last, len(episodes))

	// 3. Online reasoning: the trained actor (deterministic mean action)
	//    against the paper's baselines, 200 iterations from the same start.
	drl, err := agent.Scheduler()
	if err != nil {
		log.Fatal(err)
	}
	heuristicInit := make([]float64, sys.N())
	for i, tr := range sys.Traces {
		heuristicInit[i] = tr.Summary().Mean
	}
	heuristic, err := sched.NewHeuristic(heuristicInit, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	static, err := sched.NewStaticSampled(sys, 2, 0.05, rand.New(rand.NewSource(7)))
	if err != nil {
		log.Fatal(err)
	}
	results, err := core.Evaluate(sys, []sched.Scheduler{drl, heuristic, static, sched.MaxFreq{}}, 0, 200)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nscheduler   mean cost   mean time   mean energy")
	for _, r := range results {
		fmt.Printf("%-10s  %9.2f  %9.2f  %11.3f\n", r.Name, r.MeanCost, r.MeanTime, r.MeanEnergy)
	}

	// 4. Persist the agent for reuse (see cmd/flsim).
	if err := agent.Save("quickstart-agent.json"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsaved trained agent to quickstart-agent.json")
	os.Remove("quickstart-agent.json") // keep the example side-effect free
}
