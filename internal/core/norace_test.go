//go:build !race

package core

// raceBuild reports a build with the race detector, which drops sync.Pool
// items at random.
const raceBuild = false
