//go:build !linux && !darwin

package store

import "io"

// lockDir is a no-op where flock(2) is unavailable (windows and the
// rarer unixes): single-writer discipline is the operator's
// responsibility there, as documented on Open.
func lockDir(dir string) (io.Closer, error) { return nil, nil }
