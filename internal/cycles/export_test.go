package cycles

// SetForceRational makes MaxRatio on ws run the rational loops whatever the
// input, so tests outside the package can compare the two arithmetics.
func (ws *Workspace) SetForceRational(on bool) { ws.forceRat = on }

// UsedInt reports whether the last MaxRatio on ws ran on scaled int64 costs.
func (ws *Workspace) UsedInt() bool { return ws.intMode }

// CheckRounds reports the rounds the last RatioAtMostPlan on ws ran, summed
// over the plan's components.
func (ws *Workspace) CheckRounds() int { return ws.pRounds }
