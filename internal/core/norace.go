//go:build !race

package core

// raceBuild is true in race-detector builds, whose streams poison every
// feed buffer once its lines are retired (feedArena.poison).
const raceBuild = false
