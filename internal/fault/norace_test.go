//go:build !race

package fault

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
