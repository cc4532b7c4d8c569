module bsoap/benchmark

go 1.22

require bsoap v0.0.0

replace bsoap => ../
