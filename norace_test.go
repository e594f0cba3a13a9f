//go:build !race

package chameleon

const raceEnabled = false
