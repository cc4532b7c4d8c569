//go:build race

package xsdlex

// raceEnabled shrinks the property tests and skips the allocation gate
// under the race detector.
const raceEnabled = true
