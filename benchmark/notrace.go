//go:build !layers

package main

import "errors"

// runTraced needs the per-layer replay, which imports Hippo's internal
// packages and is compiled only with the layers tag, so that renaming an
// internal package cannot break the end-to-end run.
func runTraced(config) (*record, error) {
	return nil, errors.New("-trace 1 needs a binary built with -tags layers")
}
