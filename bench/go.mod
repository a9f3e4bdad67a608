// The benchmark is a module of its own so the repository's build and
// tier-1 test commands never see it; its import path sits under repro/
// so it may import the repository's internal packages.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
