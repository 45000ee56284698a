package nodoc

// Other is in a second file, so the finding lands on the first one only.
func Other() {}
