CREATE TABLE dept (
  id INTEGER NOT NULL,
  name VARCHAR(20),
  PRIMARY KEY (id)
);
CREATE TABLE emp (
  id INTEGER NOT NULL,
  name VARCHAR(20),
  dept INTEGER,
  salary FLOAT,
  PRIMARY KEY (id)
);
