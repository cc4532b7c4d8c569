//go:build !race

package xsdlex

const raceEnabled = false
