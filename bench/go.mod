// The benchmark is a module of its own so that it has its own build file
// and stays out of the root module's `go build ./... && go test ./...`.
// Its import path sits under `repro`, which is what lets it import
// `repro/internal/...` and measure each layer through its public functions.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
