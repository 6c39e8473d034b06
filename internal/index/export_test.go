package index

// AllKinds exposes allKinds to the external tests in package index_test.
var AllKinds = allKinds
