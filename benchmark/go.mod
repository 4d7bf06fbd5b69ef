module lsgraph/benchmark

go 1.22

require lsgraph v0.0.0

replace lsgraph => ../
