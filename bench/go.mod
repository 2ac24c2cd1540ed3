module impliance/bench

go 1.22

require impliance v0.0.0

replace impliance => ../
