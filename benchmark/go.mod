// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the root module's `go build ./...` and `go test
// ./...`. Its import path sits under `sparsetask/`, which is what lets it
// import the root module's internal packages.
module sparsetask/benchmark

go 1.22

require sparsetask v0.0.0

replace sparsetask => ../
