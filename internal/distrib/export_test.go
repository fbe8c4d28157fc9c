package distrib

// Coordinate runs a coordinated sweep on a chosen pool, so tests can
// build one of only remotes (withLocal false) or only the local worker.
var Coordinate = run
