module github.com/reprolab/swole/benchmark

go 1.22

require github.com/reprolab/swole v0.0.0

replace github.com/reprolab/swole => ../
