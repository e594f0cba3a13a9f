package rl

// QValues exposes the policy network's Q-values for a state.
func (a *TSMDP) QValues(keys []uint64) []float64 {
	return a.policy.Forward(a.cfg.Env.State(keys))
}
