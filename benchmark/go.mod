module adaptivecc/benchmark

go 1.22

require adaptivecc v0.0.0

replace adaptivecc => ../
