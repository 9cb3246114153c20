package simnet

// SetRunOrderSeed makes m's executor pick the next node to resume
// pseudo-randomly from its run queue, seeded by seed, instead of in
// FIFO order; 0 restores FIFO. Tests use it to show that simulated
// results do not depend on the execution order.
func SetRunOrderSeed(m *Machine, seed uint64) { m.exec.seed = seed }
