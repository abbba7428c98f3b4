// Package repro reproduces "Experience-Driven Computational Resource
// Allocation of Federated Learning by Deep Reinforcement Learning"
// (Y. Zhan, P. Li, S. Guo — IPDPS 2020) as a pure-stdlib Go library.
//
// Federated learning synchronizes every mobile device at each iteration:
// the round ends only when the slowest device has trained and uploaded its
// local model, so faster devices idle. The paper lowers those devices'
// CPU-cycle frequencies just enough to finish in time, cutting the δ²
// energy term without slowing the round, and learns the control policy
// with PPO because future uplink bandwidth is unknown.
//
// The implementation is layered bottom-up:
//
//   - internal/tensor, internal/nn, internal/rl — float64 linear algebra,
//     MLPs with manual backprop, and PPO-clip with GAE and Gaussian
//     policies (joint and weight-shared per-device actors).
//   - internal/trace, internal/bandwidth — piecewise-constant bandwidth
//     traces with exact upload-window integration (eq. 3), and seeded
//     regime-switching generators calibrated to the paper's 4G/HSDPA
//     datasets.
//   - internal/device, internal/fl — the §III system model: eqs. (1)–(6),
//     the synchronous barrier (5) and the wall-clock recursion (11).
//   - internal/fedavg — real FedAvg training (eqs. 7–8); examples/fedavg
//     gates it on the quality constraint (10).
//   - internal/env, internal/sched, internal/core — the MDP of §IV, the
//     baseline schedulers of §V (Heuristic [3], Static [4], plus
//     MaxFreq/Random/Oracle references), and Algorithm 1's offline
//     trainer with agent persistence.
//   - internal/experiments — one runner per paper figure (2, 6, 7, 8) and
//     the design ablations.
//
// Entry points: cmd/fltrain (Algorithm 1), cmd/flsim (online reasoning),
// cmd/tracegen (Fig. 2 traces), cmd/flexperiments (everything), and the
// runnable walkthroughs under examples/.
package repro
