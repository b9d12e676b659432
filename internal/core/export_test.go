package core

// RaceEnabled reports whether the race detector is active.
const RaceEnabled = raceEnabled
