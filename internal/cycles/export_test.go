package cycles

// SetForceRational makes MaxRatio on ws run the rational loops whatever the
// input, so tests outside the package can compare the two arithmetics.
func (ws *Workspace) SetForceRational(on bool) { ws.forceRat = on }

// UsedInt reports whether the last potential check on ws, the one that
// ended its evaluation, ran on scaled int64 costs.
func (ws *Workspace) UsedInt() bool { return ws.intMode }

// CheckRounds reports the rounds the last evaluation on ws ran, summed over
// its potential checks.
func (ws *Workspace) CheckRounds() int { return ws.pRounds }

// RatChecks reports how many potential checks of the last evaluation on ws
// ran in rationals, an int64 check restarted there included.
func (ws *Workspace) RatChecks() int { return ws.ratChecks }
