module github.com/lmp-project/lmp/bench

go 1.22

require github.com/lmp-project/lmp v0.0.0

replace github.com/lmp-project/lmp => ../
