module declnet/bench

go 1.22

require declnet v0.0.0

replace declnet => ../
