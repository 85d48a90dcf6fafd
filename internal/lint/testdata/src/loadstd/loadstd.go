// Package loadstd imports a standard package the module does not, so its
// export data is on no list but the fixture's own.
package loadstd

import "index/suffixarray"

func Lookup(data, sep []byte) []int {
	return suffixarray.New(data).Lookup(sep, -1)
}
