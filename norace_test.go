//go:build !race

package bftbcast_test

const raceEnabled = false
