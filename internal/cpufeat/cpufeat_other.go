//go:build !amd64

package cpufeat

func hasAVX2() bool { return false }
