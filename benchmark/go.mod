module hippo/benchmark

go 1.21

require hippo v0.0.0

replace hippo => ../
