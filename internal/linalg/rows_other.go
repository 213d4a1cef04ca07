//go:build !amd64

package linalg

// hostBodies lists the series bodies this machine runs: the portable
// chunksGo only.
func hostBodies() []namedBody {
	return []namedBody{{"go", chunksGo}}
}
