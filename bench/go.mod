module negfsim/bench

go 1.22

require negfsim v0.0.0

replace negfsim => ../
