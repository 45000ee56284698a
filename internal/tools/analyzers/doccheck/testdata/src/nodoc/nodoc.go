package nodoc // want "package nodoc has no doc comment"

// Documented has a doc comment; the package has none.
func Documented() {}
